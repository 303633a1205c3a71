#include "textflag.h"

// func dot4AVXAsm(v, a, b, c, d []float64) (sa, sb, sc, sd float64)
//
// Y0..Y3 hold the four lane sums of ⟨v,a⟩..⟨v,d⟩. After the main loop each
// folds as (l0+l2) + (l1+l3); the leftover len(v) mod 4 products are then
// added one at a time. Every product is rounded (VMULPD/VMULSD) before it
// is added, exactly as dot4Go computes.
TEXT ·dot4AVXAsm(SB), NOSPLIT, $0-152
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), DI
	MOVQ a_base+24(FP), AX
	MOVQ b_base+48(FP), BX
	MOVQ c_base+72(FP), CX
	MOVQ d_base+96(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ R8, R8
	MOVQ DI, R9
	ANDQ $-4, R9
	JZ   dotfold

dotloop:
	VMOVUPD (SI)(R8*8), Y4
	VMULPD  (AX)(R8*8), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (BX)(R8*8), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (CX)(R8*8), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (DX)(R8*8), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $4, R8
	CMPQ    R8, R9
	JLT     dotloop

dotfold:
	// (l0, l1, l2, l3) → (l0+l2, l1+l3) → (l0+l2) + (l1+l3).
	VEXTRACTF128 $1, Y0, X4
	VADDPD       X4, X0, X0
	VUNPCKHPD    X0, X0, X4
	VADDSD       X4, X0, X0
	VEXTRACTF128 $1, Y1, X4
	VADDPD       X4, X1, X1
	VUNPCKHPD    X1, X1, X4
	VADDSD       X4, X1, X1
	VEXTRACTF128 $1, Y2, X4
	VADDPD       X4, X2, X2
	VUNPCKHPD    X2, X2, X4
	VADDSD       X4, X2, X2
	VEXTRACTF128 $1, Y3, X4
	VADDPD       X4, X3, X3
	VUNPCKHPD    X3, X3, X4
	VADDSD       X4, X3, X3
	CMPQ         R8, DI
	JGE          dotdone

dottail:
	VMOVSD (SI)(R8*8), X4
	VMULSD (AX)(R8*8), X4, X5
	VADDSD X5, X0, X0
	VMULSD (BX)(R8*8), X4, X6
	VADDSD X6, X1, X1
	VMULSD (CX)(R8*8), X4, X7
	VADDSD X7, X2, X2
	VMULSD (DX)(R8*8), X4, X8
	VADDSD X8, X3, X3
	INCQ   R8
	CMPQ   R8, DI
	JLT    dottail

dotdone:
	VZEROUPPER
	MOVSD X0, sa+120(FP)
	MOVSD X1, sb+128(FP)
	MOVSD X2, sc+136(FP)
	MOVSD X3, sd+144(FP)
	RET

// func axpy4AVXAsm(y, a, b, c, d []float64, ca, cb, cc, cd float64)
//
// y[k] += ((ca·a[k] + cb·b[k]) + cc·c[k]) + cd·d[k], four elements per
// step and then one at a time, each product rounded before it is added:
// axpy4Go's order.
TEXT ·axpy4AVXAsm(SB), NOSPLIT, $0-152
	MOVQ         y_base+0(FP), SI
	MOVQ         y_len+8(FP), DI
	MOVQ         a_base+24(FP), AX
	MOVQ         b_base+48(FP), BX
	MOVQ         c_base+72(FP), CX
	MOVQ         d_base+96(FP), DX
	VBROADCASTSD ca+120(FP), Y0
	VBROADCASTSD cb+128(FP), Y1
	VBROADCASTSD cc+136(FP), Y2
	VBROADCASTSD cd+144(FP), Y3
	XORQ         R8, R8
	MOVQ         DI, R9
	ANDQ         $-4, R9
	JZ           axpytailcheck

axpyloop:
	VMULPD  (AX)(R8*8), Y0, Y4
	VMULPD  (BX)(R8*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (CX)(R8*8), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (DX)(R8*8), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VADDPD  (SI)(R8*8), Y4, Y4
	VMOVUPD Y4, (SI)(R8*8)
	ADDQ    $4, R8
	CMPQ    R8, R9
	JLT     axpyloop

axpytailcheck:
	CMPQ R8, DI
	JGE  axpydone

axpytail:
	VMULSD (AX)(R8*8), X0, X4
	VMULSD (BX)(R8*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (CX)(R8*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (DX)(R8*8), X3, X5
	VADDSD X5, X4, X4
	VADDSD (SI)(R8*8), X4, X4
	VMOVSD X4, (SI)(R8*8)
	INCQ   R8
	CMPQ   R8, DI
	JLT    axpytail

axpydone:
	VZEROUPPER
	RET

// func cpuid1ECX() (ecx uint32)
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ecx+0(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
