package planqueue

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"bootes/internal/faultinject"
)

func sampleRec(seq uint64) *rec {
	return &rec{
		typ:       recEnqueue,
		seq:       seq,
		state:     stateCode(StateQueued),
		flags:     flagReordered,
		k:         8,
		attempts:  1,
		enqueuedN: time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC).UnixNano(),
		tenant:    "acme",
		key:       "deadbeefdeadbeef",
		reason:    "",
	}
}

func TestRecordRoundTrip(t *testing.T) {
	want := sampleRec(42)
	want.reason = "eigensolve did not converge"
	data, err := encodeRec(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRec(data[8:]) // skip len+crc framing
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := encodeRec(sampleRec(1))
	if err != nil {
		t.Fatal(err)
	}
	payload := data[8:]
	for i := range payload {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0xFF
		if r, err := decodeRec(mut); err == nil {
			// Flipping a bit inside a string body changes content without
			// breaking structure; the CRC layer catches those. Structural
			// fields must fail outright.
			if r.typ != sampleRec(1).typ && i < 2 {
				t.Fatalf("byte %d: corrupt structural field decoded silently", i)
			}
		}
	}
}

func journalRecs(t *testing.T, path string) []*rec {
	t.Helper()
	var recs []*rec
	j, _, err := openJournal(path, func(r *rec) { recs = append(recs, r) })
	if err != nil {
		t.Fatal(err)
	}
	j.close()
	return recs
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, torn, err := openJournal(path, func(*rec) { t.Fatal("fresh journal replayed records") })
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("fresh journal reported torn")
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := j.append(sampleRec(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	recs := journalRecs(t, path)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d (order must be append order)", i, r.seq, i+1)
		}
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := openJournal(path, func(*rec) {})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := j.append(sampleRec(seq)); err != nil {
			t.Fatal(err)
		}
	}
	goodSize := j.size
	j.close()
	// Simulate a torn append: garbage bytes that parse as neither a full
	// frame nor a valid CRC.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var n int
	j2, torn, err := openJournal(path, func(*rec) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if !torn {
		t.Fatal("torn tail not reported")
	}
	if n != 3 {
		t.Fatalf("replayed %d records, want the 3 intact ones", n)
	}
	if j2.size != goodSize {
		t.Fatalf("journal size %d after truncation, want %d", j2.size, goodSize)
	}
	// The truncated journal must accept appends again.
	if err := j2.append(sampleRec(4)); err != nil {
		t.Fatal(err)
	}
	if got := len(journalRecs(t, path)); got != 4 {
		t.Fatalf("after post-truncation append: %d records, want 4", got)
	}
}

// TestJournalCrashMidWrite drives the JournalAppendWrite injection point:
// the append fails with a torn half-record on disk, and recovery truncates it
// without losing any previously acked record.
func TestJournalCrashMidWrite(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := openJournal(path, func(*rec) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(sampleRec(1)); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(faultinject.JournalAppendWrite); err != nil {
		t.Fatal(err)
	}
	if err := j.append(sampleRec(2)); err != ErrJournalCrash {
		t.Fatalf("append under injected crash returned %v, want ErrJournalCrash", err)
	}
	// The crashed journal is dead: a later record would land past the torn
	// bytes, where replay never reaches, so it must not be reported durable.
	if err := j.append(sampleRec(3)); err != errJournalBroken {
		t.Fatalf("append after injected crash returned %v, want errJournalBroken", err)
	}
	j.close()

	var seqs []uint64
	j2, torn, err := openJournal(path, func(r *rec) { seqs = append(seqs, r.seq) })
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if !torn {
		t.Fatal("crash mid-write left no torn tail to truncate")
	}
	if len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("recovered seqs %v, want [1] (acked record only)", seqs)
	}
}

// TestJournalCrashBeforeFsync drives JournalAppendFsync: the record's bytes
// are fully written but unsynced, so it may or may not survive — both
// outcomes must recover cleanly and keep every earlier acked record.
func TestJournalCrashBeforeFsync(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := openJournal(path, func(*rec) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(sampleRec(1)); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(faultinject.JournalAppendFsync); err != nil {
		t.Fatal(err)
	}
	if err := j.append(sampleRec(2)); err != ErrJournalCrash {
		t.Fatalf("append under injected crash returned %v, want ErrJournalCrash", err)
	}
	j.close()

	var seqs []uint64
	j2, _, err := openJournal(path, func(r *rec) { seqs = append(seqs, r.seq) })
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if len(seqs) == 0 || seqs[0] != 1 {
		t.Fatalf("recovered seqs %v: acked record 1 must survive", seqs)
	}
	if len(seqs) > 2 {
		t.Fatalf("recovered seqs %v: at most records 1 and 2 can exist", seqs)
	}
}

func TestJournalRewriteCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := openJournal(path, func(*rec) {})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 100; seq++ {
		if err := j.append(sampleRec(seq)); err != nil {
			t.Fatal(err)
		}
	}
	big := j.size
	snap := sampleRec(100)
	snap.typ = recSnap
	if err := j.rewrite([]*rec{snap}); err != nil {
		t.Fatal(err)
	}
	if j.size >= big {
		t.Fatalf("rewrite did not shrink the journal: %d → %d", big, j.size)
	}
	// The reopened handle must stay appendable on the *new* file.
	if err := j.append(sampleRec(101)); err != nil {
		t.Fatal(err)
	}
	j.close()
	recs := journalRecs(t, path)
	if len(recs) != 2 || recs[0].seq != 100 || recs[1].seq != 101 {
		t.Fatalf("after rewrite+append journal holds %d records (want snap 100 then 101)", len(recs))
	}
}
