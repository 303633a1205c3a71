package eigen

// The AVX kernels in kernels_amd64.s use VMULPD and VADDPD only, never a
// fused multiply-add, so they round exactly as dot4Go and axpy4Go do.

func init() {
	if hasAVX() {
		dot4, axpy4 = dot4AVX, axpy4AVX
	}
}

// hasAVX reports whether the CPU implements AVX and the OS saves the YMM
// registers across context switches (CPUID.1:ECX.OSXSAVE and .AVX, then
// XCR0 bits 1 and 2).
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xgetbv0()&6 == 6
}

// dot4AVX is dot4Go on 256-bit registers: one register of four lane sums
// per basis vector.
func dot4AVX(v, a, b, c, d []float64) (sa, sb, sc, sd float64) {
	return dot4AVXAsm(v, a[:len(v)], b[:len(v)], c[:len(v)], d[:len(v)])
}

// axpy4AVX is axpy4Go on 256-bit registers, four elements of y per step.
func axpy4AVX(y, a, b, c, d []float64, ca, cb, cc, cd float64) {
	axpy4AVXAsm(y, a[:len(y)], b[:len(y)], c[:len(y)], d[:len(y)], ca, cb, cc, cd)
}

// The assembly reads len(v) (len(y)) elements of every slice; the wrappers
// above guarantee the other slices are that long.

//go:noescape
func dot4AVXAsm(v, a, b, c, d []float64) (sa, sb, sc, sd float64)

//go:noescape
func axpy4AVXAsm(y, a, b, c, d []float64, ca, cb, cc, cd float64)

func cpuid1ECX() (ecx uint32)

func xgetbv0() (eax uint32)
