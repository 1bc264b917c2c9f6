package service

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/storage"
)

// backends enumerates the storage implementations the service layer
// must behave identically over; the per-backend contract itself lives
// in storage/storagetest, this file checks the layers above it.
func backends(t *testing.T) map[string]func(t *testing.T) storage.Backend {
	return map[string]func(t *testing.T) storage.Backend{
		"localfs": func(t *testing.T) storage.Backend {
			be, err := storage.OpenLocalFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return be
		},
		"memory": func(t *testing.T) storage.Backend { return storage.NewMemory() },
	}
}

// TestRegistryOverBackends pins that the registry round-trips models
// identically over every backend: Put caches, a fresh registry over the
// same backend lazily re-serves the identical model, Install validates
// before persisting, and generations climb.
func TestRegistryOverBackends(t *testing.T) {
	// A portable artifact whose header declares its device block as an
	// input block: the feature width still matches the weights, so only
	// the schema check can refuse it.
	var portable bytes.Buffer
	if err := trainTinyPortable(t, 62).Save(&portable); err != nil {
		t.Fatal(err)
	}
	inputBlock := bytes.Replace(portable.Bytes(), []byte(`"device":`), []byte(`"input": `), 1)
	rejected := map[string][]byte{
		"garbage":     []byte("garbage, not a model"),
		"input block": inputBlock,
	}
	for name, data := range rejected {
		if _, err := core.LoadModelBytes(data); err == nil {
			t.Errorf("LoadModelBytes accepted the %s artifact", name)
		}
	}

	for name, newBackend := range backends(t) {
		t.Run(name, func(t *testing.T) {
			be := newBackend(t)
			reg, err := NewRegistry(be)
			if err != nil {
				t.Fatal(err)
			}
			key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
			model := trainTinyModel(t, 61)
			if err := reg.Put(key, model); err != nil {
				t.Fatal(err)
			}
			if got, err := reg.Get(key); err != nil || got != model {
				t.Fatalf("Put did not cache: %v, %v", got, err)
			}
			list, gen := reg.ListSince(0)
			if len(list) != 1 || gen == 0 || list[0].Generation != gen {
				t.Fatalf("listing %+v gen %d", list, gen)
			}

			// Restart over the same backend: lazy load, same predictions.
			reg2, err := NewRegistry(be)
			if err != nil {
				t.Fatal(err)
			}
			if got := reg2.List(); len(got) != 1 || got[0].Loaded {
				t.Fatalf("restart listing %+v", got)
			}
			m2, err := reg2.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			cfg := model.Space().At(0)
			if a, b := model.Predict(cfg, model.NewScratch()), m2.Predict(cfg, m2.NewScratch()); a != b {
				t.Errorf("reloaded model predicts %v, original %v", b, a)
			}

			// Install round-trip: raw bytes from one registry feed another.
			data, rawGen, err := reg.GetRaw(key)
			if err != nil || rawGen != gen {
				t.Fatalf("GetRaw: gen %d (want %d), %v", rawGen, gen, err)
			}
			gen2, err := reg.Install(key, data)
			if err != nil {
				t.Fatal(err)
			}
			if gen2 <= gen {
				t.Errorf("Install generation %d did not advance past %d", gen2, gen)
			}
			for name, data := range rejected {
				if _, err := reg.Install(key, data); err == nil {
					t.Errorf("Install accepted the %s artifact", name)
				}
			}
			if g := reg.Generation(); g != gen2 {
				t.Errorf("rejected install moved the generation: %d, want %d", g, gen2)
			}
		})
	}
}

// TestSampleStoreOverBackends pins sample-set behaviour — append, lazy
// load, and corrupt-line tolerance — over every backend. Torn or
// malformed lines must be skipped, not fatal, whichever store holds
// them.
func TestSampleStoreOverBackends(t *testing.T) {
	for name, newBackend := range backends(t) {
		t.Run(name, func(t *testing.T) {
			be := newBackend(t)
			st, err := NewSampleStore(be)
			if err != nil {
				t.Fatal(err)
			}
			key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
			n, err := st.Append(key, []SampleRecord{{Index: 1, Seconds: 0.5}, {Index: 2, Seconds: 0.25}})
			if err != nil || n != 2 {
				t.Fatalf("Append: %d, %v", n, err)
			}

			// Damage the object behind the store's back: a torn line (no
			// trailing JSON), a malformed one, an out-of-range record, and
			// one good record.
			damage := []byte(`{"index":3,"sec` + "\n" +
				`not json at all` + "\n" +
				`{"index":-4,"seconds":1}` + "\n" +
				`{"index":5,"seconds":0.75}` + "\n")
			if _, err := be.Append(key.sampleFileName(), damage); err != nil {
				t.Fatal(err)
			}

			// A fresh store over the same backend loads lazily and serves
			// every record that survived.
			st2, err := NewSampleStore(be)
			if err != nil {
				t.Fatal(err)
			}
			recs, err := st2.Load(key)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 3 || recs[2].Index != 5 {
				t.Fatalf("loaded %+v, want the 3 intact records", recs)
			}
		})
	}
}

// TestSampleStoreRotationOverBackends pins that the cap-rotation path
// (an atomic Put of the trimmed object) works over every backend.
func TestSampleStoreRotationOverBackends(t *testing.T) {
	for name, newBackend := range backends(t) {
		t.Run(name, func(t *testing.T) {
			be := newBackend(t)
			st, err := NewSampleStore(be)
			if err != nil {
				t.Fatal(err)
			}
			st.cap = 10
			key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
			recs := make([]SampleRecord, 25)
			for i := range recs {
				recs[i] = SampleRecord{Index: int64(i), Seconds: 0.1}
			}
			n, err := st.Append(key, recs)
			if err != nil {
				t.Fatal(err)
			}
			if n != 10 {
				t.Fatalf("post-rotation count %d, want cap 10", n)
			}
			// The stored object holds exactly the newest cap records.
			st2, err := NewSampleStore(be)
			if err != nil {
				t.Fatal(err)
			}
			kept, err := st2.Load(key)
			if err != nil {
				t.Fatal(err)
			}
			if len(kept) != 10 || kept[0].Index != 15 || kept[9].Index != 24 {
				t.Fatalf("rotated set %+v, want indices 15..24", kept)
			}
		})
	}
}

// TestRegistryGetMapsNotExist pins the error mapping: a key whose
// object vanished from storage surfaces as ErrModelNotFound territory,
// not a raw storage error leaking through the API.
func TestRegistryGetMapsNotExist(t *testing.T) {
	be := storage.NewMemory()
	reg, err := NewRegistry(be)
	if err != nil {
		t.Fatal(err)
	}
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	if err := reg.Put(key, trainTinyModel(t, 71)); err != nil {
		t.Fatal(err)
	}
	if err := be.Delete(key.fileName()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get(key); !errors.Is(err, ErrModelNotFound) {
		t.Errorf("Get after external delete + reload: %v, want ErrModelNotFound", err)
	}
}
