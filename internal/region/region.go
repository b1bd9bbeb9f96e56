package region

import (
	"fmt"
	"sync"
	"sync/atomic"

	"indexlaunch/internal/domain"
)

// TreeID identifies a region tree (a root collection and all of its views).
type TreeID uint32

var nextTreeID atomic.Uint32

// Tree is a region tree: one root collection, its field space, and the
// physical storage for every field. All logical regions of the tree are
// views onto this storage.
type Tree struct {
	ID     TreeID
	Name   string
	Domain domain.Domain // the root index space
	Fields *FieldSpace

	root   *Region
	bounds domain.Rect // Domain's bounds, which storage is linearized over

	mu     sync.Mutex
	dataMu sync.RWMutex
	f64    map[FieldID][]float64
	i64    map[FieldID][]int64

	nextPartition atomic.Uint32
	nextRegion    atomic.Uint32
}

// NewTree creates a region tree with allocated storage for every field.
// The root domain must be dense (storage is linearized over its bounds).
func NewTree(name string, dom domain.Domain, fields *FieldSpace) (*Tree, error) {
	if dom.Sparse() {
		return nil, fmt.Errorf("region: root domain of tree %q must be dense", name)
	}
	if dom.Empty() {
		return nil, fmt.Errorf("region: root domain of tree %q is empty", name)
	}
	t := &Tree{
		ID:     TreeID(nextTreeID.Add(1)),
		Name:   name,
		Domain: dom,
		Fields: fields,
		bounds: dom.Bounds(),
		f64:    map[FieldID][]float64{},
		i64:    map[FieldID][]int64{},
	}
	vol := dom.Volume()
	for _, f := range fields.Fields() {
		switch f.Kind {
		case F64:
			t.f64[f.ID] = make([]float64, vol)
		case I64:
			t.i64[f.ID] = make([]int64, vol)
		default:
			return nil, fmt.Errorf("region: field %q has unsupported kind %v", f.Name, f.Kind)
		}
	}
	t.root = &Region{ID: RegionID{Tree: t.ID, Index: 0}, Tree: t, Domain: dom, Name: name}
	return t, nil
}

// MustNewTree is NewTree that panics on error.
func MustNewTree(name string, dom domain.Domain, fields *FieldSpace) *Tree {
	t, err := NewTree(name, dom, fields)
	if err != nil {
		panic(err)
	}
	return t
}

// Root returns the root logical region covering the whole collection.
func (t *Tree) Root() *Region { return t.root }

// RegionID is a stable identifier for a logical region within its tree.
// Identical region-tree construction sequences yield identical IDs, which is
// what lets replicated (DCR) shards name regions without communication.
type RegionID struct {
	Tree  TreeID
	Index uint32
}

func (id RegionID) String() string { return fmt.Sprintf("r%d.%d", id.Tree, id.Index) }

// Region is a logical region: a view of a subset of a tree's collection.
type Region struct {
	ID     RegionID
	Tree   *Tree
	Domain domain.Domain
	Name   string

	intervalsOnce sync.Once
	intervals     []Interval
}

// Volume returns the number of objects in the region.
func (r *Region) Volume() int64 { return r.Domain.Volume() }

// Intervals returns the sorted linearized interval view of the region over
// the root domain. The result is computed once and cached; callers must not
// mutate it.
func (r *Region) Intervals() []Interval {
	r.intervalsOnce.Do(func() {
		r.intervals = IntervalsOf(r.Domain, r.Tree.Domain.Bounds())
	})
	return r.intervals
}

// Overlaps reports whether two regions can share data: they must be views of
// the same tree with intersecting point sets.
func (r *Region) Overlaps(s *Region) bool {
	if r.Tree != s.Tree {
		return false
	}
	return IntervalsOverlap(r.Intervals(), s.Intervals())
}

func (r *Region) String() string {
	if r.Name != "" {
		return fmt.Sprintf("%s(%s)", r.Name, r.ID)
	}
	return r.ID.String()
}

func (t *Tree) newRegion(dom domain.Domain, name string) *Region {
	return &Region{
		ID:     RegionID{Tree: t.ID, Index: t.nextRegion.Add(1)},
		Tree:   t,
		Domain: dom,
		Name:   name,
	}
}
