// Package tasklib implements the VDCE task libraries: the menu-driven,
// functionally grouped catalogs of executable tasks the Application
// Editor exposes (the paper names the matrix-algebra library and the C3I
// command-and-control library). Every entry couples a real Go
// implementation with the task-performance parameters the scheduler's
// prediction phase needs and the executable locations the
// task-constraints database records.
package tasklib

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"vdce/internal/linalg"
	"vdce/internal/repository"
)

// Value is one unit of inter-task data: whatever flows along an AFG edge.
// The concrete types the libraries exchange — *linalg.Matrix, *LUResult,
// []float64, []Track, []Threat, float64, string, []byte, []dsp.Peak and
// []complex128 — have a wire form (codec.go) so the Data Manager can
// move them across TCP channels.
type Value any

// LUResult carries an LU decomposition between tasks.
type LUResult struct {
	L, U  *linalg.Matrix
	Perm  []int
	Swaps int
}

// Context is what a running task sees: its inputs (one per input port),
// its argument map from the task properties, and the node count granted
// by the scheduler for parallel tasks.
type Context struct {
	In    []Value
	Args  map[string]string
	Nodes int
}

// IntArg returns the named integer argument or def if absent.
func (c *Context) IntArg(name string, def int) (int, error) {
	s, ok := c.Args[name]
	if !ok || s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("tasklib: arg %q: %w", name, err)
	}
	return v, nil
}

// Int64Arg returns the named int64 argument or def if absent.
func (c *Context) Int64Arg(name string, def int64) (int64, error) {
	s, ok := c.Args[name]
	if !ok || s == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("tasklib: arg %q: %w", name, err)
	}
	return v, nil
}

// FloatArg returns the named float argument or def if absent.
func (c *Context) FloatArg(name string, def float64) (float64, error) {
	s, ok := c.Args[name]
	if !ok || s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("tasklib: arg %q: %w", name, err)
	}
	return v, nil
}

// Matrix extracts input port i as a matrix.
func (c *Context) Matrix(i int) (*linalg.Matrix, error) {
	if i < 0 || i >= len(c.In) {
		return nil, fmt.Errorf("tasklib: no input %d", i)
	}
	m, ok := c.In[i].(*linalg.Matrix)
	if !ok {
		return nil, fmt.Errorf("tasklib: input %d is %T, want *linalg.Matrix", i, c.In[i])
	}
	return m, nil
}

// Vector extracts input port i as a vector.
func (c *Context) Vector(i int) ([]float64, error) {
	if i < 0 || i >= len(c.In) {
		return nil, fmt.Errorf("tasklib: no input %d", i)
	}
	v, ok := c.In[i].([]float64)
	if !ok {
		return nil, fmt.Errorf("tasklib: input %d is %T, want []float64", i, c.In[i])
	}
	return v, nil
}

// Func is a task implementation: it consumes a Context and produces one
// Value per output port.
type Func func(*Context) ([]Value, error)

// Spec is one catalog entry.
type Spec struct {
	Name     string
	Library  string
	InPorts  int
	OutPorts int
	// Params feed the task-performance database (computation size,
	// communication size, memory, base time, parallelizability).
	Params repository.TaskParams
	Fn     Func
}

// Registry is a task catalog grouped by library, mirroring the editor's
// menu-driven task libraries.
type Registry struct {
	specs map[string]*Spec
}

// NewRegistry returns an empty catalog.
func NewRegistry() *Registry {
	return &Registry{specs: make(map[string]*Spec)}
}

// Register adds a spec; names are global across libraries, as in the
// paper's task-performance database.
func (r *Registry) Register(s Spec) error {
	if s.Name == "" || s.Fn == nil {
		return fmt.Errorf("tasklib: spec needs name and function")
	}
	if s.InPorts < 0 || s.OutPorts < 1 {
		return fmt.Errorf("tasklib: spec %s has bad port counts %d/%d", s.Name, s.InPorts, s.OutPorts)
	}
	if _, dup := r.specs[s.Name]; dup {
		return fmt.Errorf("tasklib: duplicate task %s", s.Name)
	}
	if s.Params.Name == "" {
		s.Params.Name = s.Name
	}
	c := s
	r.specs[s.Name] = &c
	return nil
}

// Get returns the named spec.
func (r *Registry) Get(name string) (*Spec, error) {
	s, ok := r.specs[name]
	if !ok {
		return nil, fmt.Errorf("tasklib: unknown task %q", name)
	}
	return s, nil
}

// Libraries returns the distinct library names, sorted — the editor's
// top-level menu.
func (r *Registry) Libraries() []string {
	set := make(map[string]bool)
	for _, s := range r.specs {
		set[s.Library] = true
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Names returns the task names in one library, sorted — one editor menu.
func (r *Registry) Names(library string) []string {
	var out []string
	for _, s := range r.specs {
		if s.Library == library {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// All returns every task name, sorted.
func (r *Registry) All() []string {
	out := make([]string, 0, len(r.specs))
	for n := range r.specs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// InstallInto populates a site repository with this catalog: task
// parameters into the task-performance database and executable locations
// (under /opt/vdce/tasks) into the task-constraints database for every
// listed host.
func (r *Registry) InstallInto(repo *repository.Repository, hosts []string) error {
	for _, name := range r.All() {
		s := r.specs[name]
		if err := repo.TaskPerf.RegisterTask(s.Params); err != nil {
			return err
		}
		path := "/opt/vdce/tasks/" + s.Name
		for _, h := range hosts {
			if err := repo.Constraints.SetLocation(s.Name, h, path); err != nil {
				return err
			}
		}
	}
	return nil
}

// baseTimeFor derives a BaseTime consistent with the default predictor's
// 100 Mops base processor.
func baseTimeFor(ops float64) time.Duration {
	return time.Duration(ops / 100e6 * float64(time.Second))
}

// Default returns the full catalog: matrix algebra, C3I, and utility
// libraries.
func Default() *Registry {
	r := NewRegistry()
	mustRegister := func(s Spec) {
		if err := r.Register(s); err != nil {
			panic(err) // static catalog; failure is a programming error
		}
	}
	registerMatrixLibrary(mustRegister)
	registerC3ILibrary(mustRegister)
	registerSignalLibrary(mustRegister)
	registerUtilLibrary(mustRegister)
	return r
}
