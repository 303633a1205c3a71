package plancache

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestPermJSONBuiltOnFirstUse: neither Put nor Open builds an entry's
// permutation encoding, so a cache that serves no permutation holds none;
// many first calls racing on one entry agree with encoding/json (run under
// -race by make race-serve), and later calls return the kept bytes.
func TestPermJSONBuiltOnFirstUse(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, testMatrix(t, 1))
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get(e.Key); got.permJSON.Load() != nil {
		t.Error("Put built the permutation encoding")
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _ := c2.Get(e.Key)
	if loaded.permJSON.Load() != nil {
		t.Error("Open built the permutation encoding")
	}
	want, _ := json.Marshal([]int32(loaded.Perm))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := loaded.PermJSON(); !bytes.Equal(got, want) {
				t.Errorf("concurrent PermJSON %s, want %s", got, want)
			}
		}()
	}
	wg.Wait()
	if a, b := loaded.PermJSON(), loaded.PermJSON(); &a[0] != &b[0] {
		t.Error("a later call built the encoding again")
	}
}
