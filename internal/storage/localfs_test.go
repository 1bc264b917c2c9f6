package storage_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

func TestLocalFSConformance(t *testing.T) {
	storagetest.Run(t, func(t *testing.T) storage.Backend {
		be, err := storage.OpenLocalFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return be
	})
}

// TestLocalFSRawLayout pins bit-compatibility with the pre-storage
// on-disk layout: a Put writes exactly the given bytes under exactly
// the given name (no envelope, no sidecar), and files dropped into the
// directory behind the backend's back read back unchanged.
func TestLocalFSRawLayout(t *testing.T) {
	dir := t.TempDir()
	be, err := storage.OpenLocalFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("exact bytes\nwith a second line")
	if _, err := be.Put("model.mlt", payload); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "model.mlt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, payload) {
		t.Errorf("on-disk bytes %q, want the exact payload %q", onDisk, payload)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the object file: %v", len(entries), entries)
	}

	// A file written externally (cmd/mltune -save-model, an operator's
	// cp) is served with a generation of its own.
	external := []byte("dropped in behind the backend's back")
	if err := os.WriteFile(filepath.Join(dir, "external.mlt"), external, 0o644); err != nil {
		t.Fatal(err)
	}
	got, info, err := be.Get("external.mlt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, external) || info.Generation == 0 {
		t.Errorf("external file: got %q gen %d", got, info.Generation)
	}
}

// TestLocalFSCrashOrphanSweep pins the crash story: temp files from an
// interrupted Put are removed at open and by Sweep, and never count as
// objects.
func TestLocalFSCrashOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, ".tmp-123456")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o600); err != nil {
		t.Fatal(err)
	}
	be, err := storage.OpenLocalFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan not swept at open: %v", err)
	}
	list, err := be.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Errorf("swept directory lists %+v", list)
	}

	// Sweep mid-life: a later crash orphan (simulated directly) goes too.
	if err := os.WriteFile(orphan, []byte("again"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := be.(storage.Sweeper).Sweep(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan not swept by Sweep: %v", err)
	}
}

// TestLocalFSGenerationsAcrossRestart pins the replication cursor
// contract: reopening a directory re-derives generations that never
// exceed what the objects were last advertised under, and mutations
// after the restart keep climbing.
func TestLocalFSGenerationsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	be, err := storage.OpenLocalFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	info, err := be.Put("a.obj", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}

	be2, err := storage.OpenLocalFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := be2.Stat("a.obj")
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation > info.Generation {
		t.Errorf("restart advanced an unchanged object's generation: %d > %d (a replica holding a since-cursor would re-fetch the world)",
			st.Generation, info.Generation)
	}
	info2, err := be2.Put("a.obj", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if info2.Generation <= st.Generation {
		t.Errorf("post-restart Put generation %d did not advance past %d", info2.Generation, st.Generation)
	}

	// An external touch with changed contents gets a fresh generation.
	time.Sleep(5 * time.Millisecond) // ensure a distinct mtime even on coarse clocks
	if err := os.WriteFile(filepath.Join(dir, "a.obj"), []byte("external"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := be2.Stat("a.obj")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Generation <= info2.Generation {
		t.Errorf("external modification not detected: generation %d after %d", st2.Generation, info2.Generation)
	}
}

// TestLocalFSDeleteForgetsGeneration pins that an externally removed and
// re-created name is not mistaken for unchanged.
func TestLocalFSDeleteForgetsGeneration(t *testing.T) {
	dir := t.TempDir()
	be, err := storage.OpenLocalFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Put("a.obj", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := be.Delete("a.obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := be.Stat("a.obj"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("Stat after Delete: %v", err)
	}
	info, err := be.Put("a.obj", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation == 0 {
		t.Error("re-created object has zero generation")
	}
}

// TestLocalFSGetIsCallerOwned pins Backend.Get's ownership contract on
// localfs: Get returns a generation consistent with Stat and a slice
// that is the caller's to keep. Bytes a reader already holds stay
// unchanged when the object is replaced or deleted afterwards, and a
// write to them does not reach the stored object. The registry's
// loader relies on this.
func TestLocalFSGetIsCallerOwned(t *testing.T) {
	be, err := storage.OpenLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := []byte("generation one contents")
	if _, err := be.Put("model.mlt", old); err != nil {
		t.Fatal(err)
	}
	got, info, err := be.Get("model.mlt")
	if err != nil {
		t.Fatal(err)
	}
	st, err := be.Stat("model.mlt")
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != st.Generation {
		t.Fatalf("Get generation %d != Stat generation %d", info.Generation, st.Generation)
	}
	got[0] ^= 0xff
	again, _, err := be.Get("model.mlt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, old) {
		t.Fatalf("a write to Get's slice reached the stored object: %q", again)
	}

	if _, err := be.Put("model.mlt", []byte("generation two, longer than before")); err != nil {
		t.Fatal(err)
	}
	if err := be.Delete("model.mlt"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, old) {
		t.Fatal("bytes returned by Get changed after the object was replaced and deleted")
	}
}
