package kernel

import (
	"fmt"
	"sort"
	"sync"

	"rt3/internal/mat"
	"rt3/internal/pattern"
	"rt3/internal/sparse"
)

// Options configures kernel construction through a Registry.
type Options struct {
	// Set, when non-nil, is applied to the weights before packing: every
	// format then executes the pattern-masked matrix, so any registry
	// format can serve an RT3 level ("pattern" packs the masked survivors
	// natively). A nil Set keeps every weight: that is how the linears no
	// level prunes are built.
	Set *pattern.Set
}

// Builder constructs a kernel over the dense weight matrix w. The
// serving engine calls builders one at a time, from its own goroutine,
// so a builder may keep unsynchronized state across calls (the
// benchmark's timing wrapper appends to its records); parallelism, if a
// build wants it, belongs inside the builder.
type Builder func(w *mat.Matrix, opts Options) (Kernel, error)

// Registry maps format names to kernel builders.
type Registry struct {
	mu       sync.RWMutex
	builders map[string]Builder
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{builders: make(map[string]Builder)}
}

// Register installs a builder under name, replacing any previous one.
func (r *Registry) Register(name string, b Builder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.builders[name] = b
}

// Build constructs a kernel of the named format over w.
func (r *Registry) Build(name string, w *mat.Matrix, opts Options) (Kernel, error) {
	r.mu.RLock()
	b, ok := r.builders[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("kernel: unknown format %q (have %v)", name, r.Names())
	}
	k, err := b(w, opts)
	if err != nil {
		return nil, err
	}
	buildsTotal.Add(1)
	return k, nil
}

// Names returns the registered format names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.builders))
	for n := range r.builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// masked returns w with opts.Set applied (or w itself when no set).
func masked(w *mat.Matrix, opts Options) *mat.Matrix {
	if opts.Set == nil {
		return w
	}
	mask, _ := opts.Set.Apply(w)
	mw := w.Clone()
	mw.Hadamard(mask)
	return mw
}

// defaultRegistry holds the built-in execution formats.
var defaultRegistry = func() *Registry {
	r := NewRegistry()
	r.Register("dense", func(w *mat.Matrix, opts Options) (Kernel, error) {
		return NewDense(masked(w, opts)), nil
	})
	r.Register("pattern", func(w *mat.Matrix, opts Options) (Kernel, error) {
		return sparse.PackSet(w, opts.Set)
	})
	return r
}()

// Register installs a builder in the default registry. The engine calls
// it one build at a time from its own goroutine (see Builder).
func Register(name string, b Builder) { defaultRegistry.Register(name, b) }

// Build constructs a kernel from the default registry.
func Build(name string, w *mat.Matrix, opts Options) (Kernel, error) {
	return defaultRegistry.Build(name, w, opts)
}

// Formats returns the default registry's format names, sorted.
func Formats() []string { return defaultRegistry.Names() }
