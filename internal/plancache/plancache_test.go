package plancache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bootes/internal/faultinject"
	"bootes/internal/leakcheck"
	"bootes/internal/obs"
	"bootes/internal/plancache/atomicio"
	"bootes/internal/planverify"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

func testMatrix(t *testing.T, seed int64) *sparse.CSR {
	t.Helper()
	return workloads.ScrambledBlock(workloads.Params{
		Rows: 64, Cols: 64, Density: 0.05, Seed: seed, Groups: 4,
	})
}

func testEntry(t *testing.T, m *sparse.CSR) *Entry {
	t.Helper()
	n := m.Rows
	perm := make(sparse.Permutation, n)
	for i := range perm {
		perm[i] = int32(n - 1 - i) // reversal: a valid non-identity bijection
	}
	return &Entry{
		Key:               KeyCSR(m),
		Perm:              perm,
		Reordered:         true,
		K:                 8,
		PreprocessSeconds: 0.25,
		FootprintBytes:    4096,
	}
}

func TestKeyCSRIsStructural(t *testing.T) {
	m := testMatrix(t, 1)
	k1, k2 := KeyCSR(m), KeyCSR(m.Clone())
	if k1 != k2 {
		t.Fatal("identical structures hash differently")
	}
	if k := KeyCSR(testMatrix(t, 2)); k == k1 {
		t.Fatal("different structures collide")
	}
	// Values must not affect the key: planning consumes only the pattern.
	withVal := m.Clone()
	withVal.Val = make([]float64, withVal.NNZ())
	for i := range withVal.Val {
		withVal.Val[i] = float64(i)
	}
	if KeyCSR(withVal) != k1 {
		t.Fatal("values changed the structural key")
	}
}

// TestKeyCSRGolden pins KeyCSR for a fixed Matrix Market body. Persisted
// caches and ring placement both depend on the key, so a change to the
// reader or to COO assembly that moved it would orphan every stored plan
// and reshuffle ownership. The body has comments, rows out of order,
// duplicates and symmetric mirrors; the literal was recorded with the
// Scanner-based reader. The BCSR re-encoding of the matrix, which the fleet
// forwards, must hash the same.
func TestKeyCSRGolden(t *testing.T) {
	const body = `%%MatrixMarket matrix coordinate real symmetric
% comments, unsorted rows, duplicates and mirrored entries
5 5 8
3 1 1.5
% a comment between entries
1 1 2.0
5 2 -1.0
3 1 0.5
2 2 4.0
   4 3 1e-3
5 5 7
4 3 2
`
	const want = "38de547794d167274a1063536a722cedbab324751dbcf3ba309a4d6022a20a53"
	m, err := sparse.ReadMatrixMarket(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if got := KeyCSR(m); got != want {
		t.Errorf("KeyCSR(Matrix Market) = %s, want %s", got, want)
	}
	var buf bytes.Buffer
	if err := sparse.WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := sparse.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := KeyCSR(back); got != want {
		t.Errorf("KeyCSR(BCSR) = %s, want %s", got, want)
	}
}

func TestEntryRoundTrip(t *testing.T) {
	e := testEntry(t, testMatrix(t, 1))
	e.Degraded = true
	e.DegradedReason = "requested: eigensolver did not converge"
	data, err := EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != e.Key || got.Reordered != e.Reordered || got.K != e.K ||
		got.Degraded != e.Degraded || got.DegradedReason != e.DegradedReason ||
		got.PreprocessSeconds != e.PreprocessSeconds || got.FootprintBytes != e.FootprintBytes {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, e)
	}
	if len(got.Perm) != len(e.Perm) {
		t.Fatal("perm length changed")
	}
	for i := range got.Perm {
		if got.Perm[i] != e.Perm[i] {
			t.Fatalf("perm diverges at %d", i)
		}
	}
}

func TestCachePutGetReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, testMatrix(t, 1))
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(e.Key); !ok || got.K != 8 {
		t.Fatalf("Get = (%v, %v)", got, ok)
	}

	// A fresh process (Open on the same dir) sees the durable entry.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(e.Key)
	if !ok {
		t.Fatal("entry lost across reopen")
	}
	if err := got.Perm.Validate(len(got.Perm)); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Entries != 1 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheCorruptionQuarantine flips and truncates bytes at every offset
// region of an on-disk entry and asserts the damaged file is quarantined on
// reopen — never fatal, never served — and that a recompute (fresh Put)
// restores service under the same key.
func TestCacheCorruptionQuarantine(t *testing.T) {
	e := testEntry(t, testMatrix(t, 1))
	pristine, err := EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"magic", flipAt(0)},
		{"version", flipAt(5)},
		{"payload-length", flipAt(9)},
		{"crc", flipAt(13)},
		{"payload-head", flipAt(20)},
		{"payload-perm", flipAt(len(pristine) - 8)},
		{"truncate-header", func(b []byte) []byte { return b[:10] }},
		{"truncate-payload", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncate-1", func(b []byte) []byte { return b[:len(b)-1] }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, e.Key+Ext)
			data := append([]byte(nil), pristine...)
			if err := os.WriteFile(path, tc.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := Open(dir)
			if err != nil {
				t.Fatalf("corrupt entry made Open fatal: %v", err)
			}
			if _, ok := c.Get(e.Key); ok {
				t.Fatal("corrupt entry was served")
			}
			if st := c.Stats(); st.Quarantined != 1 {
				t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
			}
			if _, err := os.Stat(path + QuarantineSuffix); err != nil {
				t.Fatalf("damaged bytes not preserved: %v", err)
			}
			// Recompute path: a fresh Put under the same key restores service.
			if err := c.Put(e); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(e.Key); !ok {
				t.Fatal("recomputed entry not served")
			}
		})
	}
}

func flipAt(off int) func([]byte) []byte {
	return func(b []byte) []byte {
		if off < len(b) {
			b[off] ^= 0x40
		}
		return b
	}
}

// TestCacheCrashAtEverySyscallBoundary interrupts the entry write at each
// protocol step (temp-file payload write, fsync, rename) and asserts the
// acceptance property: the cache reopens cleanly with the entry either fully
// present or fully absent — never corrupt, never fatal.
func TestCacheCrashAtEverySyscallBoundary(t *testing.T) {
	e := testEntry(t, testMatrix(t, 1))
	boundaries := []struct {
		point   string
		present bool // entry visible after the simulated crash?
	}{
		{faultinject.CacheWriteTemp, false},
		{faultinject.CacheWriteFsync, false},
		{faultinject.CacheWriteRename, false},
	}
	for _, b := range boundaries {
		t.Run(b.point, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			dir := t.TempDir()
			c, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Arm(b.point)
			err = c.Put(e)
			if !errors.Is(err, atomicio.ErrInjectedCrash) {
				t.Fatalf("Put = %v, want injected crash", err)
			}
			// The "process" died mid-write. A new process opens the cache.
			c2, err := Open(dir)
			if err != nil {
				t.Fatalf("cache unloadable after crash at %s: %v", b.point, err)
			}
			if st := c2.Stats(); st.Quarantined != 0 {
				t.Fatalf("crash left a corrupt (quarantined) entry: %+v", st)
			}
			if _, ok := c2.Get(e.Key); ok != b.present {
				t.Fatalf("entry present=%v after crash at %s, want %v", ok, b.point, b.present)
			}
			// No stray temp files survive recovery.
			names, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, de := range names {
				if strings.Contains(de.Name(), atomicio.TempSuffix) {
					t.Fatalf("stray temp file %s after recovery", de.Name())
				}
			}
			// And the interrupted write can simply be retried.
			if err := c2.Put(e); err != nil {
				t.Fatal(err)
			}
			if _, ok := c2.Get(e.Key); !ok {
				t.Fatal("retried write not visible")
			}
		})
	}
}

// TestCacheCrashAfterRenameIsDurable covers the remaining boundary: once the
// rename has happened, a crash (before or after the directory fsync) must
// leave the complete entry visible.
func TestCacheCrashAfterRenameIsDurable(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, testMatrix(t, 1))
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash by discarding the in-memory cache and reopening.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(e.Key)
	if !ok {
		t.Fatal("published entry lost")
	}
	if len(got.Perm) != len(e.Perm) {
		t.Fatal("published entry truncated")
	}
}

// TestCacheFilenameKeyMismatch: an entry copied under another key's filename
// must be quarantined, not served for the wrong matrix.
func TestCacheFilenameKeyMismatch(t *testing.T) {
	dir := t.TempDir()
	e := testEntry(t, testMatrix(t, 1))
	data, err := EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	wrongKey := KeyCSR(testMatrix(t, 2))
	if err := os.WriteFile(filepath.Join(dir, wrongKey+Ext), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(wrongKey); ok {
		t.Fatal("entry served under a filename whose key it does not match")
	}
	if st := c.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
}

// TestOpenQuarantinesEntriesPutRefuses: an entry that decodes cleanly but
// whose plan Put would refuse (here k=20, which an eigengap-selecting node
// of an older release could cache) is quarantined at Open, so it is neither
// served nor listed in Keys, the anti-entropy digest's source.
func TestOpenQuarantinesEntriesPutRefuses(t *testing.T) {
	dir := t.TempDir()
	good := testEntry(t, testMatrix(t, 1))
	bad := testEntry(t, testMatrix(t, 2))
	bad.K = 20
	for _, e := range []*Entry{good, bad} {
		data, err := EncodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Key+Ext), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Quarantined != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 entry and 1 quarantined", st)
	}
	if keys := c.Keys(); len(keys) != 1 || keys[0] != good.Key {
		t.Fatalf("Keys() = %v, want only %s", keys, good.Key)
	}
	if _, err := os.Stat(filepath.Join(dir, bad.Key+Ext+QuarantineSuffix)); err != nil {
		t.Fatalf("refused entry not set aside: %v", err)
	}
}

// TestCacheConcurrentAccess hammers one cache with concurrent writers and
// readers across overlapping keys (run under -race via make race-serve).
func TestCacheConcurrentAccess(t *testing.T) {
	leakcheck.Goroutines(t)
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]*Entry, 8)
	for i := range entries {
		entries[i] = testEntry(t, testMatrix(t, int64(i+1)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				e := entries[(g+i)%len(entries)]
				if g%2 == 0 {
					if err := c.Put(e); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				} else {
					if got, ok := c.Get(e.Key); ok {
						if err := got.Perm.Validate(len(got.Perm)); err != nil {
							t.Errorf("torn entry read: %v", err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Every entry must be durable and intact after the storm.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Quarantined != 0 {
		t.Fatalf("concurrent writes corrupted %d entries", st.Quarantined)
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	e := testEntry(t, testMatrix(t, 1))
	data, err := EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	data[4] = 99 // future format version
	if _, err := DecodeEntry(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version skew decoded: %v", err)
	}
}

func TestDecodeRejectsNonBijection(t *testing.T) {
	e := testEntry(t, testMatrix(t, 1))
	e.Perm[0] = e.Perm[1] // duplicate target
	if _, err := EncodeEntry(e); err != nil {
		t.Fatal(err) // encode does not validate; decode must
	}
	data, _ := EncodeEntry(e)
	if _, err := DecodeEntry(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("non-bijective perm decoded: %v", err)
	}
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testEntry(t, testMatrix(t, 1))); err != nil {
		t.Fatal(err)
	}
}

// TestOpenSkipsSubdirectories: a directory inside the cache directory is not
// an entry, whatever it holds, and Open leaves it alone. The hint spool that
// older self-healing nodes kept under <cache>/hints is such a directory: it
// is inert and safe to delete.
func TestOpenSkipsSubdirectories(t *testing.T) {
	dir := t.TempDir()
	e := testEntry(t, testMatrix(t, 1))
	data, err := EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	spool := filepath.Join(dir, "hints", "aHR0cDovL3BlZXI6ODA4MA==")
	if err := os.MkdirAll(spool, 0o755); err != nil {
		t.Fatal(err)
	}
	files := []string{filepath.Join(spool, e.Key+".hint"), filepath.Join(spool, e.Key+Ext)}
	for _, f := range files {
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Quarantined != 0 {
		t.Fatalf("a subdirectory's files reached the cache: %+v", st)
	}
	for _, f := range files {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("Open disturbed a subdirectory: %v", err)
		}
	}
}

func TestPutEmptyKeyRejected(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(&Entry{}); err == nil {
		t.Fatal("empty key accepted")
	}
}

// TestKeysOutsideCacheDirRefused: Put, PutCanonical, Delete and Scrub refuse
// a key that is not one file name in the cache directory, and write or
// remove nothing, while a file-name key that is not a plan key still works.
func TestKeysOutsideCacheDirRefused(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "cache")
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(root, "victim"+Ext)
	if err := os.WriteFile(victim, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../../escaped", "../../victim", "sub/key", "/abs", "dir/", ""} {
		e := testEntry(t, testMatrix(t, 1))
		e.Key = key
		if err := c.Put(e); err == nil {
			t.Errorf("Put accepted key %q", key)
		}
		if _, err := c.PutCanonical(e); err == nil {
			t.Errorf("PutCanonical accepted key %q", key)
		}
		if err := c.Delete(key); err == nil {
			t.Errorf("Delete accepted key %q", key)
		}
		if err := c.Scrub(key); err == nil {
			t.Errorf("Scrub accepted key %q", key)
		}
	}
	if _, err := os.Stat(victim); err != nil {
		t.Errorf("a file outside the cache directory was removed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "escaped"+Ext)); !os.IsNotExist(err) {
		t.Errorf("an entry was written outside the cache directory (stat: %v)", err)
	}
	e := testEntry(t, testMatrix(t, 1))
	e.Key = "key-001"
	if err := c.Put(e); err != nil {
		t.Errorf("a file-name key was refused: %v", err)
	}
}

// TestValidKey pins the shape every network ingress requires of a key:
// KeyCSR's 64 lowercase hex digits.
func TestValidKey(t *testing.T) {
	key := KeyCSR(testMatrix(t, 1))
	if !ValidKey(key) {
		t.Errorf("KeyCSR's %q is not a valid key", key)
	}
	for _, bad := range []string{"", key[:63], key + "0", strings.ToUpper(key), "../" + key[3:], key[:63] + "g"} {
		if ValidKey(bad) {
			t.Errorf("ValidKey(%q) = true", bad)
		}
	}
}

func ExampleKeyCSR() {
	m := sparse.Identity(4, false)
	fmt.Println(len(KeyCSR(m)))
	// Output: 64
}

// TestPutRejectsDegradedEntry: a degraded plan reflects the moment's faults,
// not the matrix — Put must refuse it before any disk I/O.
func TestPutRejectsDegradedEntry(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, testMatrix(t, 1))
	e.Perm = sparse.IdentityPerm(len(e.Perm))
	e.Reordered = false
	e.K = 0
	e.Degraded = true
	e.DegradedReason = "requested: wall-clock budget exhausted; fell back to identity"
	if err := c.Put(e); err == nil {
		t.Fatal("degraded entry accepted")
	}
	if c.Len() != 0 {
		t.Fatal("rejected entry reached the index")
	}
	if got := c.Stats().WriteErrors; got != 1 {
		t.Fatalf("WriteErrors = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(c.Dir(), e.Key+Ext)); !os.IsNotExist(err) {
		t.Fatal("rejected entry reached the disk")
	}
}

// TestPutRejectsInvalidPlan: structural violations (bad perm, illegal K) must
// fail Put without touching disk or the index.
func TestPutRejectsInvalidPlan(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := testEntry(t, testMatrix(t, 2))
	bad.Perm[0] = bad.Perm[1] // duplicate ⇒ not a bijection
	if err := c.Put(bad); err == nil {
		t.Fatal("non-bijective perm accepted")
	}
	badK := testEntry(t, testMatrix(t, 3))
	// K must be 0 or a candidate count.
	badK.K = 1
	if err := c.Put(badK); err == nil {
		t.Fatal("illegal K accepted")
	}
	if c.Len() != 0 {
		t.Fatal("rejected entries reached the index")
	}
}

// TestPutCatchesInjectedCorruption: with the PlanCorrupt point armed, a
// perfectly healthy entry must be rejected — proof the cache-write site
// actually runs the verifier.
func TestPutCatchesInjectedCorruption(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Arm(faultinject.PlanCorrupt, faultinject.Always()); err != nil {
		t.Fatal(err)
	}
	putViolations := obs.Default().CounterVec(obs.VerifyViolationsName, "", "site", "code").
		With(planverify.SiteCachePut, planverify.CodePermInvalid)
	before := putViolations.Value()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, testMatrix(t, 4))
	if err := c.Put(e); err == nil {
		t.Fatal("injected corruption not caught at Put")
	}
	if putViolations.Value() <= before {
		t.Fatal("violation not recorded under the cache-put site")
	}
	faultinject.Reset()
	if err := c.Put(e); err != nil {
		t.Fatalf("healthy Put after disarm: %v", err)
	}
}

// TestKeysSortedStatDelete pins the new anti-entropy surface: Keys is sorted,
// Stat reports the on-disk size+CRC without decoding, and Delete removes both
// the file and the index entry.
func TestKeysSortedStatDelete(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var entries []*Entry
	for seed := int64(1); seed <= 4; seed++ {
		e := testEntry(t, testMatrix(t, seed))
		if err := c.Put(e); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	keys := c.Keys()
	if len(keys) != 4 {
		t.Fatalf("Keys() = %d entries, want 4", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("Keys() not sorted: %q >= %q", keys[i-1], keys[i])
		}
	}

	e := entries[0]
	st, ok := c.Stat(e.Key)
	if !ok {
		t.Fatal("Stat miss for a present key")
	}
	fi, err := os.Stat(filepath.Join(dir, e.Key+Ext))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != fi.Size() {
		t.Fatalf("Stat size %d != file size %d", st.Size, fi.Size())
	}
	if st.CRC == 0 {
		t.Fatal("Stat CRC is zero")
	}
	// A reopened cache (fresh process) reports the identical stat — the
	// digest exchange depends on stats being stable across restarts.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2, ok := c2.Stat(e.Key); !ok || st2 != st {
		t.Fatalf("Stat across reopen = (%+v, %v), want (%+v, true)", st2, ok, st)
	}

	if err := c.Delete(e.Key); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Peek(e.Key); ok {
		t.Fatal("deleted key still served")
	}
	if _, ok := c.Stat(e.Key); ok {
		t.Fatal("deleted key still has a stat")
	}
	if _, err := os.Stat(filepath.Join(dir, e.Key+Ext)); !os.IsNotExist(err) {
		t.Fatalf("deleted entry file still on disk: %v", err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d after delete, want 3", c.Len())
	}
	if err := c.Delete(e.Key); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	// A reopen must not resurrect the deleted entry.
	c3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Peek(e.Key); ok {
		t.Fatal("deleted entry resurrected on reopen")
	}
}

// TestScrub covers the scrubber's contract: a healthy entry passes, silent
// on-disk corruption is quarantined + evicted, and an unindexed key is a
// no-op.
func TestScrub(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := testEntry(t, testMatrix(t, 1))
	bad := testEntry(t, testMatrix(t, 2))
	for _, e := range []*Entry{good, bad} {
		if err := c.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Scrub(good.Key); err != nil {
		t.Fatalf("scrub of healthy entry: %v", err)
	}
	if err := c.Scrub("not-a-key"); err != nil {
		t.Fatalf("scrub of absent key: %v", err)
	}

	// Flip one payload byte on disk behind the cache's back (bit rot).
	path := filepath.Join(dir, bad.Key+Ext)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Scrub(bad.Key); err == nil {
		t.Fatal("scrub missed flipped payload byte")
	}
	if _, ok := c.Peek(bad.Key); ok {
		t.Fatal("corrupt entry still served after scrub")
	}
	if _, err := os.Stat(path + QuarantineSuffix); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	if st := c.Stats(); st.Quarantined != 1 || st.Entries != 1 {
		t.Fatalf("stats after scrub = %+v", st)
	}
	// Recovery path: a fresh Put under the same key restores service.
	if err := c.Put(bad); err != nil {
		t.Fatal(err)
	}
	if err := c.Scrub(bad.Key); err != nil {
		t.Fatalf("scrub after repair: %v", err)
	}
}
