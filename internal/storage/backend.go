// Package storage defines the pluggable persistence layer under
// mltuned's model registry and sample store: a flat namespace of named
// blobs with atomic replacement, durable appends, and per-key
// generation numbers.
//
// The interface is deliberately small — list/stat/get/put/append/delete
// — because it is the fan-out point for fleet scale-out: a train-plane
// node writes model artifacts through it, and serve-plane replicas pull
// changed artifacts by comparing generations, whatever medium actually
// holds the bytes. Two implementations ship today: localfs (the
// daemon's historical on-disk layout, bit-compatible with files written
// before this package existed) and memory (tests and ephemeral
// replicas). New backends must pass the conformance suite in
// storage/storagetest before the daemon will trust them; see
// CONTRIBUTING.
package storage

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// ErrNotExist reports an operation on an object the backend does not
// hold. Compare with errors.Is.
var ErrNotExist = errors.New("storage: object does not exist")

// ObjectInfo describes one stored object.
type ObjectInfo struct {
	// Name is the object's key in the backend's flat namespace.
	Name string
	// Size is the object's length in bytes.
	Size int64
	// ModTime is when the object was last mutated.
	ModTime time.Time
	// Generation is the object's change number: every mutation (Put or
	// Append) observed by the backend assigns a generation strictly
	// greater than any the backend returned before, so "changed since G"
	// is answerable by comparison alone. Generations order changes within
	// one backend; they are not comparable across backends. Across a
	// restart a persistent backend re-derives generations such that an
	// unchanged object's generation never exceeds the last one it was
	// advertised under.
	Generation uint64
}

// Backend stores named blobs. Implementations must be safe for
// concurrent use, and Put must be atomic: a reader (or a crash) sees
// either the old contents or the new, never a mix or a truncation.
type Backend interface {
	// Name identifies the implementation ("localfs", "memory") for
	// operator-facing surfaces like /v1/stats.
	Name() string
	// List returns every object, sorted by name.
	List() ([]ObjectInfo, error)
	// Stat describes one object (ErrNotExist when absent).
	Stat(name string) (ObjectInfo, error)
	// Get returns the object's contents and info (ErrNotExist when
	// absent). The returned slice is the caller's to keep.
	Get(name string) ([]byte, ObjectInfo, error)
	// Put atomically and durably replaces (creating if needed) the
	// object's contents and assigns it a new generation.
	Put(name string, data []byte) (ObjectInfo, error)
	// Append durably appends to the object (creating if needed) and
	// assigns it a new generation.
	Append(name string, data []byte) (ObjectInfo, error)
	// Delete removes the object (ErrNotExist when absent).
	Delete(name string) error
}

// Sweeper is implemented by backends that can be left with crash
// debris (half-written temporaries). Sweep removes it; the registry's
// reload path calls it so a crashed daemon does not leak one temp file
// per interrupted write forever.
type Sweeper interface {
	Sweep() error
}

// tmpPrefix marks in-flight write temporaries in backends that need
// them (localfs). Object names may not claim it: the crash-orphan sweep
// must be able to delete anything carrying the prefix.
const tmpPrefix = ".tmp-"

// ValidateName reports whether name is usable as an object key:
// non-empty, no path separators (backends may map names to files in one
// flat directory), and not dot-prefixed (reserved for backend-internal
// temporaries). Every backend enforces it so a name valid on one is
// valid on all.
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("storage: empty object name")
	}
	if strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("storage: object name %q contains a path separator", name)
	}
	if strings.HasPrefix(name, ".") {
		return fmt.Errorf("storage: object name %q is dot-prefixed (reserved)", name)
	}
	return nil
}
