package broadcast

import (
	"reflect"
	"sync"

	"repro/internal/topology"
)

// Plan memoization. Planning is deterministic — the same algorithm on
// the same mesh shape from the same source always yields the same
// plan — and plans are read-only once validated, so every layer that
// runs repeated studies over one substrate (a load sweep, a
// multi-seed CV experiment, mixed traffic, the saturation benchmark)
// used to re-plan and re-validate identical schedules on every run.
// At saturation the planning layer was close to half of a study's
// allocation volume.
//
// The cache key is the mesh's name — which fully encodes shape: kind
// (mesh/torus) and per-dimension extents, the only topology inputs a
// planner sees — plus the algorithm VALUE (not just its name: a
// parameterised algorithm like Multicast{MaxPerPath: 2} must not
// share entries with Multicast{MaxPerPath: 4}) and the source.
// Cached plans are published with their send index prebuilt, so
// concurrent studies share them without synchronising.

// planCacheMax bounds the cache's entry count. On overflow the whole
// map is dropped and re-warms. A workload whose working set of
// (shape, algorithm, source) triples fits never resets; one that does
// not resets every planCacheMax misses and hits far less often: the
// saturation benchmark's 2,048 triples on 8×8×8 hit about 30% of the
// time, Fig. 1 at 16×16×16 (16,384 triples) a few percent. What keeps
// that affordable is the plan format, not the policy: a plan is a few
// flat arrays (sends, one waypoint arena, the CSR index), so a full
// cache is a few thousand heap objects for the collector to trace,
// not millions, and a re-warm costs planning time only.
const planCacheMax = 1024

type planKey struct {
	topo string
	algo Algorithm
	src  topology.NodeID
}

var (
	planMu    sync.Mutex
	planCache map[planKey]*Plan
)

// PlanCached returns algo's validated plan from src on m, memoized
// process-wide. Equivalent to algo.Plan + Plan.Validate, including
// errors (failures are never cached). Meshes at or above
// StreamThreshold bypass the cache: their plans are large, and the
// million-node studies run once per substrate anyway.
func PlanCached(m *topology.Mesh, algo Algorithm, src topology.NodeID) (*Plan, error) {
	if m.Nodes() >= StreamThreshold || !reflect.TypeOf(algo).Comparable() {
		return planFresh(m, algo, src)
	}
	key := planKey{topo: m.Name(), algo: algo, src: src}
	planMu.Lock()
	p, ok := planCache[key]
	planMu.Unlock()
	if ok {
		return p, nil
	}
	p, err := planFresh(m, algo, src)
	if err != nil {
		return nil, err
	}
	planMu.Lock()
	if len(planCache) >= planCacheMax {
		planCache = nil
	}
	if planCache == nil {
		planCache = make(map[planKey]*Plan)
	}
	if prev, ok := planCache[key]; ok {
		p = prev // lost a race; keep the published plan canonical
	} else {
		planCache[key] = p
	}
	planMu.Unlock()
	return p, nil
}

func planFresh(m *topology.Mesh, algo Algorithm, src topology.NodeID) (*Plan, error) {
	p, err := algo.Plan(m, src)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(m); err != nil {
		return nil, err
	}
	return p, nil
}
