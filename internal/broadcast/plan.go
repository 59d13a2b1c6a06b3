// Package broadcast implements the four broadcast algorithms the
// paper compares — Recursive Doubling (RD), Extended Dominating Nodes
// (EDN), Deterministic Broadcast (DB) and Adaptive Broadcast (AB) —
// as planners that emit message-passing schedules, plus the engine
// that executes a schedule on the simulated wormhole network.
//
// A Plan is a set of Sends organised in message-passing steps. The
// engine is dependency-driven, like the paper's path processes: a
// node's step-s send is injected the moment the node holds the
// message, not at a global barrier, and the node's injection ports
// serialise its sends in step order.
package broadcast

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/topology"
)

// Send is one planned message: a coded path injected by its source
// during a given message-passing step.
type Send struct {
	// Step is the 1-based message-passing step this send belongs to.
	Step int
	// Path is the coded path, held by value: source, ordered delivery
	// waypoints. In planner output the waypoints are a window of the
	// plan's shared arena; treat them as read-only.
	Path core.CodedPath
	// Adaptive marks sends routed by the adaptive (turn-model)
	// routing function instead of dimension-order.
	Adaptive bool
}

// Plan is a complete broadcast schedule for one source.
type Plan struct {
	// Algorithm names the planner that produced the plan.
	Algorithm string
	// Source initiates the broadcast.
	Source topology.NodeID
	// Steps is the number of message-passing steps.
	Steps int
	// Sends lists every planned message. Planners emit them in any
	// order; Validate (or the first Execute) stably sorts them in
	// place into (source, step) order, the order each node's ports
	// serialise its sends in, and leaves them there.
	Sends []Send

	// start is the execution index, a CSR (compressed sparse row)
	// over the sorted Sends: node v injects Sends[start[v]:start[v+1]].
	// A plan is executed many times under contended and mixed
	// workloads, so the index is built once (in Validate, or lazily on
	// first Execute) and shared read-only by every execution. It has
	// one entry per node up to the highest sending node, plus one.
	start []int32
}

// planBuilder collects a plan's sends while their waypoints go into
// one plan-wide arena, in emission order: each send's waypoints are
// the arena run appended since the previous send. While the arena can
// still grow and move, a run is recorded as its end offset; finish
// slices every Path.Waypoints out of the final arena.
type planBuilder struct {
	p     *Plan
	arena []topology.NodeID
	ends  []int32
}

// newPlanBuilder starts a plan with room for sends sends carrying
// waypoints waypoints in total. The hints only size the backing
// arrays; exceeding them costs a reallocation, not correctness.
func newPlanBuilder(algo string, src topology.NodeID, steps, sends, waypoints int) *planBuilder {
	return &planBuilder{
		p:     &Plan{Algorithm: algo, Source: src, Steps: steps, Sends: make([]Send, 0, sends)},
		arena: make([]topology.NodeID, 0, waypoints),
		ends:  make([]int32, 0, sends),
	}
}

// send records a send from src whose waypoints are the arena run
// appended since the previous send, and returns it for annotation
// (valid until the next send). A send with an empty run is dropped
// and send returns nil.
func (b *planBuilder) send(step int, src topology.NodeID, adaptive bool) *Send {
	prev := int32(0)
	if n := len(b.ends); n > 0 {
		prev = b.ends[n-1]
	}
	if int(prev) == len(b.arena) {
		return nil
	}
	b.ends = append(b.ends, int32(len(b.arena)))
	b.p.Sends = append(b.p.Sends, Send{Step: step, Path: core.CodedPath{Source: src}, Adaptive: adaptive})
	return &b.p.Sends[len(b.p.Sends)-1]
}

// chain records a send from src visiting the given stops in order.
func (b *planBuilder) chain(step int, src topology.NodeID, adaptive bool, stops ...topology.NodeID) *Send {
	b.arena = append(b.arena, stops...)
	return b.send(step, src, adaptive)
}

// finish slices each send's waypoints out of the final arena, capped
// so that no path can append into its neighbour's run.
func (b *planBuilder) finish() *Plan {
	lo := int32(0)
	for i, hi := range b.ends {
		b.p.Sends[i].Path.Waypoints = b.arena[lo:hi:hi]
		lo = hi
	}
	return b.p
}

// PlanCached is algo.Plan followed by Plan.Validate, which also builds
// the send index, so executions may share the plan read-only. The
// name is historical: plans were once memoized process-wide.
func PlanCached(m *topology.Mesh, algo Algorithm, src topology.NodeID) (*Plan, error) {
	p, err := algo.Plan(m, src)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(m); err != nil {
		return nil, err
	}
	return p, nil
}

// Memo shares the plans of one run among its simulations, such as the
// paired cells of a fault sweep. It never evicts, so it lives for one
// run. The zero Memo is empty and safe for concurrent use.
type Memo struct{ plans sync.Map } // memoKey → indexed *Plan, stored once

type memoKey struct {
	m    *topology.Mesh
	algo string
	src  topology.NodeID
}

// Plan returns PlanCached(m, algo, src) once per memo, shared read-only;
// racing misses keep the first plan stored. A nil memo plans afresh.
func (memo *Memo) Plan(m *topology.Mesh, algo Algorithm, src topology.NodeID) (*Plan, error) {
	if memo == nil {
		return PlanCached(m, algo, src)
	}
	k := memoKey{m, algo.Name(), src}
	p, ok := memo.plans.Load(k)
	if !ok {
		q, err := PlanCached(m, algo, src)
		if err != nil {
			return nil, err
		}
		p, _ = memo.plans.LoadOrStore(k, q)
	}
	return p.(*Plan), nil
}

// index returns the plan's CSR send index, building it on first use:
// Sends is stably sorted in place into (source, step) order. Not safe
// for a concurrent first call; executions on one network are
// single-threaded by design, and PlanCached returns plans indexed.
func (p *Plan) index() []int32 {
	if p.start != nil {
		return p.start
	}
	maxSrc := p.Source
	for i := range p.Sends {
		maxSrc = max(maxSrc, p.Sends[i].Path.Source)
	}
	start := make([]int32, int(maxSrc)+2)
	for i := range p.Sends {
		start[p.Sends[i].Path.Source+1]++
	}
	for v := 1; v < len(start); v++ {
		start[v] += start[v-1]
	}
	// Counting scatter by source, stable: dst[i] is the slot send i
	// moves to. start[v] serves as node v's cursor, which leaves it
	// holding start[v+1]; the copy shifts the offsets back.
	buf := getScratch(len(p.Sends))
	defer scratch.Put(buf)
	dst := *buf
	for i := range p.Sends {
		src := p.Sends[i].Path.Source
		dst[i] = start[src]
		start[src]++
	}
	copy(start[1:], start)
	start[0] = 0
	// Apply the permutation in place: each swap puts one send in its
	// final slot.
	for i := range dst {
		for j := dst[i]; int(j) != i; j = dst[i] {
			p.Sends[i], p.Sends[j] = p.Sends[j], p.Sends[i]
			dst[i], dst[j] = dst[j], dst[i]
		}
	}
	// Stable insertion sort by step within each node's run. Planners
	// emit a node's sends nearly in step order, so the runs are short
	// and almost sorted.
	for v := 0; v+1 < len(start); v++ {
		run := p.Sends[start[v]:start[v+1]]
		for i := 1; i < len(run); i++ {
			for j := i; j > 0 && run[j].Step < run[j-1].Step; j-- {
				run[j], run[j-1] = run[j-1], run[j]
			}
		}
	}
	p.start = start
	return start
}

// Algorithm plans broadcasts on a mesh.
type Algorithm interface {
	// Name returns the paper's abbreviation: "RD", "EDN", "DB", "AB".
	Name() string
	// Ports returns the router injection-port model the algorithm
	// assumes (1 for one-port, 3 for EDN's three-port router).
	Ports() int
	// Plan returns the broadcast schedule for source src on mesh m.
	Plan(m *topology.Mesh, src topology.NodeID) (*Plan, error)
}

// Validate checks the plan's structural and causal sanity:
// every coded path is well-formed, every send's source already holds
// the message strictly before the send's step, and after the final
// step every node of the mesh holds the message. A valid plan is then
// indexed for execution: Sends ends up in (source, step) order.
func (p *Plan) Validate(m *topology.Mesh) error {
	if p.Source < 0 || int(p.Source) >= m.Nodes() {
		return fmt.Errorf("broadcast: source %d out of range", p.Source)
	}
	if p.Steps > math.MaxInt32 {
		return fmt.Errorf("broadcast: %s plan has %d steps", p.Algorithm, p.Steps)
	}
	// informedAt[v] is the earliest step whose sends cover v (0 for
	// the source, -1 for never). A send is causal exactly when its
	// source's entry is below its step, whatever order the sends are
	// checked in.
	buf := getScratch(m.Nodes())
	defer scratch.Put(buf)
	informedAt := *buf
	for i := range informedAt {
		informedAt[i] = -1
	}
	informedAt[p.Source] = 0
	for i := range p.Sends {
		s := &p.Sends[i]
		if s.Step < 1 || s.Step > p.Steps {
			return fmt.Errorf("broadcast: %s send at step %d outside [1,%d]", p.Algorithm, s.Step, p.Steps)
		}
		if err := s.Path.Validate(m); err != nil {
			return fmt.Errorf("broadcast: %s step %d: %w", p.Algorithm, s.Step, err)
		}
		for _, w := range s.Path.Waypoints {
			if at := informedAt[w]; at < 0 || s.Step < int(at) {
				informedAt[w] = int32(s.Step)
			}
		}
	}
	for i := range p.Sends {
		s := &p.Sends[i]
		switch at := int(informedAt[s.Path.Source]); {
		case at < 0:
			return fmt.Errorf("broadcast: %s step %d: source %d never receives the message", p.Algorithm, s.Step, s.Path.Source)
		case at >= s.Step:
			return fmt.Errorf("broadcast: %s step %d: source %d only informed at step %d", p.Algorithm, s.Step, s.Path.Source, at)
		}
	}
	for id, at := range informedAt {
		if at < 0 {
			return fmt.Errorf("broadcast: %s plan from %d never covers node %d", p.Algorithm, p.Source, id)
		}
	}
	// A validated plan is about to be executed, typically many times;
	// build the execution index once while still outside any hot loop.
	p.index()
	return nil
}

// scratch pools the int32 buffers of Validate and index, so planning
// allocates only what the plan keeps.
var scratch sync.Pool // *[]int32

// getScratch returns a pooled buffer of length n with arbitrary
// contents; return it with scratch.Put.
func getScratch(n int) *[]int32 {
	buf, _ := scratch.Get().(*[]int32)
	if buf == nil {
		buf = new([]int32)
	}
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return buf
}

// MessageCount returns the number of worms the plan injects — the
// paper's "number of messages" resource metric.
func (p *Plan) MessageCount() int { return len(p.Sends) }

// TotalPathNodes returns the total number of delivery waypoints across
// all sends, a proxy for total path length / channel occupancy.
func (p *Plan) TotalPathNodes() int {
	total := 0
	for _, s := range p.Sends {
		total += len(s.Path.Waypoints)
	}
	return total
}

// MaxSendsPerNodeStep returns the maximum number of sends any single
// node injects within one step — it must not exceed the algorithm's
// port model for the step count to be honest.
func (p *Plan) MaxSendsPerNodeStep() int {
	type key struct {
		node topology.NodeID
		step int
	}
	counts := make(map[key]int)
	max := 0
	for _, s := range p.Sends {
		k := key{s.Path.Source, s.Step}
		counts[k]++
		if counts[k] > max {
			max = counts[k]
		}
	}
	return max
}
