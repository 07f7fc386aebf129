// Package load is the deterministic open-loop load generator behind
// cmd/looload: it turns a multi-client traffic spec — per-client rate
// fractions, Poisson or gamma (bursty) interarrivals, job mixes, and SLO
// classes, the ServeGen client-decomposition shape — into a seeded arrival
// schedule, replays that schedule against a discrete-event model of a
// serving fleet built on the same serve.Admission core production nodes
// run, and reports per-client latency percentiles, SLO attainment, and
// offered-load-vs-goodput saturation curves.
//
// Everything here is a pure function of the spec: no wall clock (the
// model's time is virtual; live replay lives in cmd/looload, where wall
// time is allowed), no global randomness (every sample comes from a
// rand.Rand seeded by the spec seed and the client name), no map
// iteration in any output path. Two runs of the same spec are
// byte-identical, which is what lets check.sh cmp two seeded replays.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"loosesim/internal/serve"
)

// Spec is a traffic spec: an aggregate offered rate decomposed over
// heterogeneous clients.
type Spec struct {
	// Name labels reports.
	Name string `json:"name,omitempty"` // simlint:novalidate free-form label, any string valid
	// Seed drives every sample in the schedule; same seed, same schedule.
	Seed int64 `json:"seed"` // simlint:novalidate every seed value is a valid draw
	// Rate is the aggregate offered load in jobs per second, split across
	// clients by their rate fractions.
	Rate float64 `json:"rate"`
	// Jobs is the total number of arrivals to generate across all clients.
	Jobs int `json:"jobs"`
	// Clients decompose the aggregate rate. Fractions must sum to 1
	// (within 1e-6).
	Clients []ClientSpec `json:"clients"`
}

// ClientSpec is one client population's traffic shape.
type ClientSpec struct {
	// Name identifies the client in reports and in JobSpec.Client for
	// fairness accounting server-side. Must be unique and non-empty.
	Name string `json:"name"`
	// RateFraction is this client's share of Spec.Rate, in (0, 1].
	RateFraction float64 `json:"rate_fraction"`
	// SLO is the admission class every job from this client declares:
	// "interactive", "standard", or "batch" (empty = interactive).
	SLO string `json:"slo,omitempty"`
	// SLOMillis is the client's latency target; attainment is the
	// fraction of completed jobs at or under it. <= 0 disables the
	// attainment column for this client.
	SLOMillis float64 `json:"slo_ms,omitempty"`
	// Arrival shapes the interarrival process.
	Arrival ArrivalSpec `json:"arrival"`
	// Mix is the client's job mix; entries are picked by weight.
	Mix []MixEntry `json:"mix"`
}

// Arrival process names.
const (
	// ProcessPoisson draws exponential interarrivals (CV = 1).
	ProcessPoisson = "poisson"
	// ProcessGamma draws gamma interarrivals with a configurable
	// coefficient of variation: CV > 1 is burstier than Poisson, CV < 1
	// smoother.
	ProcessGamma = "gamma"
)

// ArrivalSpec shapes one client's interarrival process.
type ArrivalSpec struct {
	// Process is ProcessPoisson or ProcessGamma; empty selects Poisson.
	Process string `json:"process,omitempty"`
	// CV is the gamma process's coefficient of variation (std dev over
	// mean); ignored for Poisson. Must be positive for gamma.
	CV float64 `json:"cv,omitempty"`
}

// MixEntry is one weighted job template in a client's mix.
type MixEntry struct {
	// Weight is the entry's relative pick probability; must be positive.
	Weight float64 `json:"weight"`
	// CostMS is the job's modeled service time in milliseconds, used by
	// the fleet model; <= 0 selects DefaultCostMS. Live replay ignores it
	// (real jobs cost what they cost).
	CostMS float64 `json:"cost_ms,omitempty"`
	// Job is the template submitted in live replay mode. The generator
	// fills Client and SLO from the owning ClientSpec.
	Job serve.JobSpec `json:"job"`
}

// DefaultCostMS is the modeled service time when a mix entry does not set
// one.
const DefaultCostMS = 10.0

// fractionTolerance bounds how far client rate fractions may sum from 1.
const fractionTolerance = 1e-6

// Validate checks the spec is runnable.
func (s *Spec) Validate() error {
	if s.Rate <= 0 || math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("load: rate %v must be a positive finite jobs/sec", s.Rate)
	}
	if s.Jobs <= 0 {
		return fmt.Errorf("load: jobs %d must be positive", s.Jobs)
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("load: spec has no clients")
	}
	seen := make(map[string]bool, len(s.Clients))
	sum := 0.0
	for i := range s.Clients {
		c := &s.Clients[i]
		if c.Name == "" {
			return fmt.Errorf("load: client %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("load: duplicate client name %q", c.Name)
		}
		seen[c.Name] = true
		if c.RateFraction <= 0 || c.RateFraction > 1 || math.IsNaN(c.RateFraction) {
			return fmt.Errorf("load: client %q rate_fraction %v must be in (0, 1]", c.Name, c.RateFraction)
		}
		sum += c.RateFraction
		if _, err := serve.ParseClass(c.SLO); err != nil {
			return fmt.Errorf("load: client %q: %w", c.Name, err)
		}
		switch c.Arrival.Process {
		case "", ProcessPoisson:
		case ProcessGamma:
			if c.Arrival.CV <= 0 || math.IsNaN(c.Arrival.CV) || math.IsInf(c.Arrival.CV, 0) {
				return fmt.Errorf("load: client %q: gamma arrivals need a positive finite cv, got %v", c.Name, c.Arrival.CV)
			}
		default:
			return fmt.Errorf("load: client %q: unknown arrival process %q (want %s or %s)",
				c.Name, c.Arrival.Process, ProcessPoisson, ProcessGamma)
		}
		if len(c.Mix) == 0 {
			return fmt.Errorf("load: client %q has an empty job mix", c.Name)
		}
		for j := range c.Mix {
			if w := c.Mix[j].Weight; w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("load: client %q mix %d: weight %v must be positive and finite", c.Name, j, w)
			}
		}
	}
	if math.Abs(sum-1) > fractionTolerance {
		return fmt.Errorf("load: client rate fractions sum to %v, want 1", sum)
	}
	return nil
}

// ParseSpec decodes and validates a JSON spec, rejecting unknown fields so
// a typoed key fails loudly instead of silently shaping no traffic.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("load: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// DefaultSpec is the built-in spec looload runs without -spec and the one
// TestModelConservationAndDeterminism replays: three client populations
// with skewed rate shares (the ServeGen observation that a few clients
// dominate), one of them bursty, spanning all three SLO classes and both
// single-sim and figure job kinds.
func DefaultSpec() Spec {
	return Spec{
		Name: "default",
		Seed: 1,
		Rate: 200,
		Jobs: 2000,
		Clients: []ClientSpec{
			{
				Name:         "dashboard",
				RateFraction: 0.6,
				SLO:          "interactive",
				SLOMillis:    50,
				Arrival:      ArrivalSpec{Process: ProcessPoisson},
				Mix: []MixEntry{
					{Weight: 1, CostMS: 5, Job: serve.JobSpec{Bench: "gcc", Inst: 20000}},
				},
			},
			{
				Name:         "sweeper",
				RateFraction: 0.3,
				SLO:          "standard",
				SLOMillis:    250,
				Arrival:      ArrivalSpec{Process: ProcessGamma, CV: 2.5},
				Mix: []MixEntry{
					{Weight: 3, CostMS: 20, Job: serve.JobSpec{Bench: "swim", Inst: 50000}},
					{Weight: 1, CostMS: 40, Job: serve.JobSpec{Bench: "mgrid", Inst: 100000}},
				},
			},
			{
				Name:         "nightly",
				RateFraction: 0.1,
				SLO:          "batch",
				Arrival:      ArrivalSpec{Process: ProcessGamma, CV: 4},
				Mix: []MixEntry{
					{Weight: 1, CostMS: 80, Job: serve.JobSpec{Figure: "4", Quick: true}},
				},
			},
		},
	}
}
