// Package atomicio provides crash-safe file publication: a file written
// through WriteFile is either fully present under its final name or not
// present at all, regardless of where the process dies. The sequence is the
// classic temp-file protocol —
//
//	create temp in the destination directory
//	  → write payload → fsync temp → close
//	  → rename(temp, dest)           (atomic on POSIX within one filesystem)
//	  → fsync directory              (makes the rename itself durable)
//
// — so a kill -9 at any instant leaves either the old file (or nothing) or
// the complete new file, never a torn destination. Stray temp files from
// interrupted writes match TempPattern and are safe to delete on recovery.
//
// The faultinject points CacheWriteTemp/CacheWriteFsync/CacheWriteRename let
// tests simulate a crash at each syscall boundary: when armed, WriteFile
// returns ErrInjectedCrash leaving the filesystem exactly as a real crash at
// that point would (no cleanup is attempted).
package atomicio

import (
	"errors"
	"io"
	"os"
	"path/filepath"

	"bootes/internal/faultinject"
)

// TempSuffix marks in-progress writes; recovery scans may remove files
// containing it.
const TempSuffix = ".tmp"

// ErrInjectedCrash is returned when a faultinject point simulates a crash
// mid-write. The filesystem is left as the crash would leave it.
var ErrInjectedCrash = errors.New("atomicio: injected crash")

// WriteFile atomically publishes the bytes produced by write at path.
// On success the file is durable (payload and rename both fsynced). On
// error the destination is untouched; the temp file is removed except under
// injected crashes, which deliberately leave it.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+TempSuffix+"*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	// Any non-crash failure removes the temp file; a simulated crash must
	// leave it, as a real crash would.
	crashed := false
	defer func() {
		if err != nil && !crashed {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()

	if faultinject.Fire(faultinject.CacheWriteTemp) {
		// Crash mid-write: a recognizable partial payload stays in the temp.
		crashed = true
		_, _ = tmp.Write([]byte{0xDE, 0xAD})
		return ErrInjectedCrash
	}
	if err = write(tmp); err != nil {
		return err
	}
	if faultinject.Fire(faultinject.CacheWriteFsync) {
		crashed = true
		return ErrInjectedCrash
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if faultinject.Fire(faultinject.CacheWriteRename) {
		crashed = true
		return ErrInjectedCrash
	}
	if err = os.Rename(tmpName, path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// WriteFileBytes is WriteFile for a pre-encoded payload.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// SyncDir fsyncs a directory so a completed rename or file creation in it
// survives power loss. Filesystems that reject directory fsync (some
// network/overlay mounts) are tolerated: the rename is still atomic, only its
// durability window widens.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}
