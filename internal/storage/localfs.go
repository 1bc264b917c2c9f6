package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// localFS is the on-disk backend: one flat directory, one file per
// object, with the durability discipline the daemon has always had —
// Put writes a temp file, fsyncs it, renames it over the target, and
// fsyncs the directory, so neither a crash mid-write nor a power loss
// right after the swap can corrupt or lose an object; Append fsyncs
// before returning. Files it writes are byte-identical to the data
// given (no envelope), so directories written before this package
// existed — and files written behind its back by cmd/mltune
// -save-model — read back unchanged.
//
// Generations are derived from file mtimes with an in-process monotonic
// overlay: a mutation through the backend gets max(clock+1, mtime), and
// a restart re-derives every generation from mtime alone — never more
// than what the object was last advertised under, so a replica's
// "since" cursor stays valid across train-node restarts. External
// writes are detected by mtime/size drift at the next Stat or List and
// get a fresh generation.
type localFS struct {
	dir string

	mu   sync.Mutex
	gens map[string]genRec
	// clock is the generation high-water mark; see bumpLocked.
	clock uint64
	// tmps names in-flight write temporaries, which Sweep must not
	// remove from under a concurrent Put.
	tmps map[string]bool
}

// genRec remembers the (mtime, size) an object's generation was
// assigned at, so external modifications are detectable.
type genRec struct {
	gen   uint64
	mtime int64
	size  int64
}

// OpenLocalFS opens (creating if needed) a directory-backed backend,
// sweeping write temporaries orphaned by a crash and deriving initial
// generations from file mtimes.
func OpenLocalFS(dir string) (Backend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating directory: %w", err)
	}
	l := &localFS{dir: dir, gens: make(map[string]genRec), tmps: make(map[string]bool)}
	if err := l.Sweep(); err != nil {
		return nil, err
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: scanning directory: %w", err)
	}
	for _, de := range des {
		if de.IsDir() || strings.HasPrefix(de.Name(), ".") {
			continue
		}
		st, err := de.Info()
		if err != nil {
			continue
		}
		mt := st.ModTime().UnixNano()
		l.gens[de.Name()] = genRec{gen: uint64(mt), mtime: mt, size: st.Size()}
		if uint64(mt) > l.clock {
			l.clock = uint64(mt)
		}
	}
	return l, nil
}

func (l *localFS) Name() string { return "localfs" }

// Dir returns the backing directory (the accessor behind the daemon's
// startup log and the default <models>/samples placement).
func (l *localFS) Dir() string { return l.dir }

// bumpLocked assigns the next generation, at least mtime so a restart
// (which re-derives from mtimes) can never run ahead of what was
// advertised. Callers hold l.mu.
func (l *localFS) bumpLocked(mtime int64) uint64 {
	l.clock++
	if uint64(mtime) > l.clock {
		l.clock = uint64(mtime)
	}
	return l.clock
}

// refreshLocked returns name's generation, assigning a fresh one when
// the file changed (or appeared) behind the backend's back. Callers
// hold l.mu.
func (l *localFS) refreshLocked(name string, mtime, size int64) uint64 {
	if rec, ok := l.gens[name]; ok && rec.mtime == mtime && rec.size == size {
		return rec.gen
	}
	gen := l.bumpLocked(mtime)
	l.gens[name] = genRec{gen: gen, mtime: mtime, size: size}
	return gen
}

// record registers a mutation this backend just performed.
func (l *localFS) record(name string, mtime, size int64) ObjectInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	gen := l.bumpLocked(mtime)
	l.gens[name] = genRec{gen: gen, mtime: mtime, size: size}
	return ObjectInfo{Name: name, Size: size, Generation: gen}
}

func (l *localFS) List() ([]ObjectInfo, error) {
	des, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: scanning directory: %w", err)
	}
	out := make([]ObjectInfo, 0, len(des))
	seen := make(map[string]bool, len(des))
	l.mu.Lock()
	for _, de := range des {
		if de.IsDir() || strings.HasPrefix(de.Name(), ".") {
			continue
		}
		st, err := de.Info()
		if err != nil {
			continue
		}
		seen[de.Name()] = true
		gen := l.refreshLocked(de.Name(), st.ModTime().UnixNano(), st.Size())
		out = append(out, ObjectInfo{Name: de.Name(), Size: st.Size(), ModTime: st.ModTime().UTC(), Generation: gen})
	}
	// Forget objects whose files were removed externally, so a name
	// reused later is not mistaken for unchanged.
	for name := range l.gens {
		if !seen[name] {
			delete(l.gens, name)
		}
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func (l *localFS) Stat(name string) (ObjectInfo, error) {
	if err := ValidateName(name); err != nil {
		return ObjectInfo{}, err
	}
	st, err := os.Stat(filepath.Join(l.dir, name))
	if os.IsNotExist(err) {
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("storage: stat %s: %w", name, err)
	}
	l.mu.Lock()
	gen := l.refreshLocked(name, st.ModTime().UnixNano(), st.Size())
	l.mu.Unlock()
	return ObjectInfo{Name: name, Size: st.Size(), ModTime: st.ModTime().UTC(), Generation: gen}, nil
}

func (l *localFS) Get(name string) ([]byte, ObjectInfo, error) {
	info, err := l.Stat(name)
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	data, err := os.ReadFile(filepath.Join(l.dir, name))
	if os.IsNotExist(err) {
		return nil, ObjectInfo{}, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if err != nil {
		return nil, ObjectInfo{}, fmt.Errorf("storage: reading %s: %w", name, err)
	}
	return data, info, nil
}

func (l *localFS) Put(name string, data []byte) (ObjectInfo, error) {
	if err := ValidateName(name); err != nil {
		return ObjectInfo{}, err
	}
	tmp, err := os.CreateTemp(l.dir, tmpPrefix+"*")
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("storage: writing %s: %w", name, err)
	}
	tmpName := filepath.Base(tmp.Name())
	l.mu.Lock()
	l.tmps[tmpName] = true
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.tmps, tmpName)
		l.mu.Unlock()
	}()
	fail := func(err error) (ObjectInfo, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return ObjectInfo{}, fmt.Errorf("storage: writing %s: %w", name, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	// fsync before the rename: the swap must never become visible while
	// the bytes are only in the page cache, or a power loss would leave
	// a truncated object under the final name.
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return ObjectInfo{}, fmt.Errorf("storage: writing %s: %w", name, err)
	}
	final := filepath.Join(l.dir, name)
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return ObjectInfo{}, fmt.Errorf("storage: writing %s: %w", name, err)
	}
	st, err := os.Stat(final)
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("storage: writing %s: %w", name, err)
	}
	info := l.record(name, st.ModTime().UnixNano(), st.Size())
	info.ModTime = st.ModTime().UTC()
	// fsync the directory so the rename itself (the new directory entry)
	// is durable, not just the file contents.
	if err := syncDir(l.dir); err != nil {
		return info, fmt.Errorf("storage: writing %s: %w", name, err)
	}
	return info, nil
}

func (l *localFS) Append(name string, data []byte) (ObjectInfo, error) {
	if err := ValidateName(name); err != nil {
		return ObjectInfo{}, err
	}
	path := filepath.Join(l.dir, name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("storage: appending to %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return ObjectInfo{}, fmt.Errorf("storage: appending to %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return ObjectInfo{}, fmt.Errorf("storage: appending to %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return ObjectInfo{}, fmt.Errorf("storage: appending to %s: %w", name, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("storage: appending to %s: %w", name, err)
	}
	info := l.record(name, st.ModTime().UnixNano(), st.Size())
	info.ModTime = st.ModTime().UTC()
	return info, nil
}

func (l *localFS) Delete(name string) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	err := os.Remove(filepath.Join(l.dir, name))
	if os.IsNotExist(err) {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if err != nil {
		return fmt.Errorf("storage: deleting %s: %w", name, err)
	}
	l.mu.Lock()
	delete(l.gens, name)
	l.mu.Unlock()
	return syncDir(l.dir)
}

// Sweep removes write temporaries orphaned by a crash. Temporaries of
// in-flight Puts are skipped, so a concurrent reload cannot yank a file
// out from under a writer.
func (l *localFS) Sweep() error {
	des, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("storage: sweeping directory: %w", err)
	}
	for _, de := range des {
		if de.IsDir() || !strings.HasPrefix(de.Name(), tmpPrefix) {
			continue
		}
		l.mu.Lock()
		inflight := l.tmps[de.Name()]
		l.mu.Unlock()
		if !inflight {
			os.Remove(filepath.Join(l.dir, de.Name()))
		}
	}
	return nil
}

// syncDir fsyncs a directory, making renames inside it durable across
// power loss. Callers that just atomically swapped a file in dir must
// call it before reporting success.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
