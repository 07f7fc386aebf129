package load

import (
	"container/heap"
	"fmt"
	"time"

	"loosesim/internal/serve"
	"loosesim/internal/stats"
)

// FleetConfig shapes the modeled serving fleet: Nodes independent servers,
// each with its own worker pool and admission-controlled queue. The
// admission semantics are not a re-implementation — every node embeds the
// same serve.Admission state machine the live Server runs, so the model's
// shed/reject behaviour is the production code path, not a sketch of it.
type FleetConfig struct {
	Nodes      int
	Workers    int
	QueueDepth int
	// ClientCap and Thresholds pass through to serve.AdmissionConfig.
	ClientCap  int
	Thresholds [serve.NumClasses]float64
}

// DefaultFleetConfig is looload's default modeled fleet.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{Nodes: 4, Workers: 2, QueueDepth: 16}
}

// latencyBoundMS caps the per-client latency histograms (millisecond
// buckets); slower completions land in the overflow bucket, which
// Quantile resolves to the true maximum.
const latencyBoundMS = 60_000

// Tally counts one population's outcomes. Conservation is submitted ==
// completed + shed + rejected + failed; the model itself has no failure
// path (Failed stays 0 there), but live replay in cmd/looload shares this
// accounting and does.
type Tally struct {
	Submitted int
	Completed int
	Shed      int
	Rejected  int
	Failed    int
}

// check verifies the conservation law for one tally.
func (t Tally) check(who string) error {
	if t.Submitted != t.Completed+t.Shed+t.Rejected+t.Failed {
		return fmt.Errorf("load: %s: conservation violated: submitted %d != completed %d + shed %d + rejected %d + failed %d",
			who, t.Submitted, t.Completed, t.Shed, t.Rejected, t.Failed)
	}
	return nil
}

// ClientResult is one client population's replay outcome.
type ClientResult struct {
	Name string
	Tally
	// Latency holds completed jobs' arrival-to-completion times in
	// millisecond buckets.
	Latency *stats.Histogram
}

// Result is one model replay's outcome.
type Result struct {
	Config FleetConfig
	// Makespan is the virtual time of the last event (arrival or
	// completion).
	Makespan time.Duration
	// PerClient is parallel to the spec's Clients.
	PerClient []ClientResult
	Totals    Tally
}

// Check verifies the conservation law fleet-wide and per client.
func (r *Result) Check() error {
	if err := r.Totals.check("fleet"); err != nil {
		return err
	}
	var sum Tally
	for i := range r.PerClient {
		c := &r.PerClient[i]
		if err := c.Tally.check("client " + c.Name); err != nil {
			return err
		}
		if got := c.Latency.Count(); got != uint64(c.Completed) {
			return fmt.Errorf("load: client %s: %d latency samples for %d completions", c.Name, got, c.Completed)
		}
		sum.Submitted += c.Submitted
		sum.Completed += c.Completed
		sum.Shed += c.Shed
		sum.Rejected += c.Rejected
		sum.Failed += c.Failed
	}
	if sum != r.Totals {
		return fmt.Errorf("load: per-client tallies %+v disagree with fleet totals %+v", sum, r.Totals)
	}
	return nil
}

// Goodput returns completed jobs per second of makespan.
func (r *Result) Goodput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Totals.Completed) / r.Makespan.Seconds()
}

// completion is one in-flight job's scheduled finish.
type completion struct {
	at   time.Duration
	seq  int // arrival seq, for deterministic tie-breaks
	node int
	arr  Arrival
}

// completionHeap is a min-heap on (at, seq).
type completionHeap []completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h completionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)   { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// queued is one admitted arrival waiting for a node worker.
type queued struct {
	arr Arrival
}

// node is one modeled server: the production admission state machine plus
// class-priority FIFOs and a busy-worker count.
type node struct {
	adm  *serve.Admission
	fifo [serve.NumClasses][]queued
	busy int
}

// RunModel replays an arrival schedule against the modeled fleet and
// returns the outcome. Service times come from each arrival's mix entry
// (CostMS, default DefaultCostMS); sharding is a deterministic hash of the
// arrival sequence number. Completions at time t process before arrivals
// at t, so capacity freed "now" is usable "now" — the same order a live
// server's scheduler converges to.
func RunModel(spec Spec, arrivals []Arrival, cfg FleetConfig) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Nodes <= 0 || cfg.Workers <= 0 {
		return nil, fmt.Errorf("load: fleet needs positive nodes and workers, got %d/%d", cfg.Nodes, cfg.Workers)
	}
	nodes := make([]*node, cfg.Nodes)
	for i := range nodes {
		nodes[i] = &node{adm: serve.NewAdmission(serve.AdmissionConfig{
			QueueDepth: cfg.QueueDepth,
			ClientCap:  cfg.ClientCap,
			Thresholds: cfg.Thresholds,
		})}
	}
	res := &Result{Config: cfg, PerClient: make([]ClientResult, len(spec.Clients))}
	for i := range spec.Clients {
		res.PerClient[i] = ClientResult{
			Name:    spec.Clients[i].Name,
			Latency: stats.NewHistogram(latencyBoundMS),
		}
	}

	var comps completionHeap
	serviceTime := func(a Arrival) time.Duration {
		ms := spec.Clients[a.Client].Mix[a.Mix].CostMS
		if ms <= 0 {
			ms = DefaultCostMS
		}
		return durationFromSeconds(ms / 1000)
	}
	// dispatch hands freed capacity on node ni to the highest-priority
	// queued jobs.
	dispatch := func(ni int, now time.Duration) {
		n := nodes[ni]
		for n.busy < cfg.Workers {
			picked := false
			for c := serve.Class(0); c < serve.NumClasses; c++ {
				if len(n.fifo[c]) == 0 {
					continue
				}
				q := n.fifo[c][0]
				n.fifo[c] = n.fifo[c][1:]
				n.adm.Release(q.arr.Class, spec.Clients[q.arr.Client].Name)
				n.busy++
				heap.Push(&comps, completion{
					at:   now + serviceTime(q.arr),
					seq:  q.arr.Seq,
					node: ni,
					arr:  q.arr,
				})
				picked = true
				break
			}
			if !picked {
				return
			}
		}
	}
	complete := func(c completion) {
		nodes[c.node].busy--
		cr := &res.PerClient[c.arr.Client]
		cr.Completed++
		res.Totals.Completed++
		cr.Latency.Add(int((c.at - c.arr.At) / time.Millisecond))
		if c.at > res.Makespan {
			res.Makespan = c.at
		}
		dispatch(c.node, c.at)
	}

	next := 0
	for next < len(arrivals) || comps.Len() > 0 {
		// Completions win ties so a worker freed at t can pick up an
		// arrival at t.
		if comps.Len() > 0 && (next >= len(arrivals) || comps[0].at <= arrivals[next].At) {
			complete(heap.Pop(&comps).(completion))
			continue
		}
		a := arrivals[next]
		next++
		if a.At > res.Makespan {
			res.Makespan = a.At
		}
		name := spec.Clients[a.Client].Name
		ni := shard(a.Seq, cfg.Nodes)
		n := nodes[ni]
		cr := &res.PerClient[a.Client]
		cr.Submitted++
		res.Totals.Submitted++
		switch n.adm.Decide(a.Class, name) {
		case serve.Admit:
			n.fifo[a.Class] = append(n.fifo[a.Class], queued{arr: a})
			dispatch(ni, a.At)
		case serve.Shed:
			cr.Shed++
			res.Totals.Shed++
		default:
			cr.Rejected++
			res.Totals.Rejected++
		}
	}
	if err := res.Check(); err != nil {
		return nil, err
	}
	return res, nil
}

// shard maps an arrival to a node deterministically, mixed so consecutive
// sequence numbers spread across the fleet.
func shard(seq, nodes int) int {
	return int(splitmix64(uint64(seq)) % uint64(nodes))
}
