// Command looload is the open-loop fleet load generator: it expands a
// multi-client traffic spec (per-client rate fractions, Poisson or gamma
// bursty interarrivals, job mixes, SLO classes — all seeded) into a
// deterministic arrival schedule and replays it either against the
// built-in discrete-event fleet model (the default: instant, byte-
// reproducible, built on the same admission-control core loosimd runs) or
// against live loosimd nodes with -target. Reports show per-client
// latency percentiles, SLO attainment, and the offered-load-vs-goodput
// saturation curve.
//
//	looload                              # model replay of the built-in spec
//	looload -spec traffic.json -scale 2  # model replay at twice the spec rate
//	looload -curve 0.25,0.5,1,2,4        # saturation curve over rate scales
//	looload -target http://host:8087     # live open-loop replay
//	looload -printspec > traffic.json    # dump the built-in spec to edit
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"loosesim/internal/load"
	"loosesim/internal/serve"
	"loosesim/internal/stats"
)

func main() {
	specPath := flag.String("spec", "", "traffic spec JSON (default: built-in spec)")
	printSpec := flag.Bool("printspec", false, "print the spec JSON and exit")
	seed := flag.Int64("seed", 0, "override the spec seed (0 = keep the spec's)")
	scale := flag.Float64("scale", 1, "multiply the spec's offered rate")
	nodes := flag.Int("nodes", 0, "modeled fleet nodes (0 = default)")
	workers := flag.Int("workers", 0, "modeled workers per node (0 = default)")
	queue := flag.Int("queue", 0, "modeled queue depth per node (0 = default)")
	clientCap := flag.Int("clientcap", 0, "modeled per-client queue cap (0 = none)")
	curve := flag.String("curve", "", "comma-separated rate scales for a saturation curve (model mode)")
	target := flag.String("target", "", "comma-separated loosimd base URLs for live replay")
	flag.Parse()

	spec := load.DefaultSpec()
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			log.Fatalf("looload: %v", err)
		}
		spec, err = load.ParseSpec(data)
		if err != nil {
			log.Fatalf("looload: %v", err)
		}
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	if *scale <= 0 {
		log.Fatalf("looload: -scale %v must be positive", *scale)
	}
	spec.Rate *= *scale

	if *printSpec {
		out, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			log.Fatalf("looload: %v", err)
		}
		fmt.Println(string(out))
		return
	}

	cfg := load.DefaultFleetConfig()
	if *nodes > 0 {
		cfg.Nodes = *nodes
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *queue > 0 {
		cfg.QueueDepth = *queue
	}
	cfg.ClientCap = *clientCap

	switch {
	case *curve != "":
		scales, err := parseScales(*curve)
		if err != nil {
			log.Fatalf("looload: %v", err)
		}
		points, err := load.SaturationCurve(spec, cfg, scales)
		if err != nil {
			log.Fatalf("looload: %v", err)
		}
		if err := load.WriteSaturation(os.Stdout, points); err != nil {
			log.Fatalf("looload: %v", err)
		}
	case *target != "":
		targets := strings.Split(*target, ",")
		for i := range targets {
			targets[i] = strings.TrimSuffix(strings.TrimSpace(targets[i]), "/")
		}
		if err := runLive(os.Stdout, spec, targets); err != nil {
			log.Fatalf("looload: %v", err)
		}
	default:
		arrivals, err := load.Generate(spec)
		if err != nil {
			log.Fatalf("looload: %v", err)
		}
		res, err := load.RunModel(spec, arrivals, cfg)
		if err != nil {
			log.Fatalf("looload: %v", err)
		}
		if err := load.WriteReport(os.Stdout, spec, res); err != nil {
			log.Fatalf("looload: %v", err)
		}
	}
}

// parseScales decodes "-curve 0.25,0.5,1,2".
func parseScales(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	scales := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -curve entry %q: %w", p, err)
		}
		scales = append(scales, v)
	}
	return scales, nil
}

// runLive replays the schedule open-loop against live backends: every
// arrival fires at its scheduled wall-time offset regardless of how the
// fleet is coping — that non-reaction to slowdown is what makes the load
// open-loop and is exactly how it exposes queue collapse. Arrivals shard
// over the targets round-robin by sequence number.
func runLive(w io.Writer, spec load.Spec, targets []string) error {
	arrivals, err := load.Generate(spec)
	if err != nil {
		return err
	}
	res := &load.Result{
		Config:    load.FleetConfig{Nodes: len(targets)},
		PerClient: make([]load.ClientResult, len(spec.Clients)),
	}
	hists := make([]*stats.Histogram, len(spec.Clients))
	for i := range spec.Clients {
		hists[i] = stats.NewHistogram(60_000)
		res.PerClient[i] = load.ClientResult{Name: spec.Clients[i].Name, Latency: hists[i]}
	}

	client := &http.Client{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i := range arrivals {
		a := arrivals[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(a.At)))
			outcome, latency := submitLive(client, targets[a.Seq%len(targets)], spec, a)
			mu.Lock()
			defer mu.Unlock()
			cr := &res.PerClient[a.Client]
			cr.Submitted++
			res.Totals.Submitted++
			switch outcome {
			case liveCompleted:
				cr.Completed++
				res.Totals.Completed++
				hists[a.Client].Add(int(latency / time.Millisecond))
			case liveShed:
				cr.Shed++
				res.Totals.Shed++
			case liveRejected:
				cr.Rejected++
				res.Totals.Rejected++
			default:
				cr.Failed++
				res.Totals.Failed++
			}
			if end := a.At + latency; end > res.Makespan {
				// simlint:ignore nondet-taint live replay measures real wall-clock latency by design; the deterministic path is RunModel
				res.Makespan = end
			}
		}()
	}
	wg.Wait()
	if err := res.Check(); err != nil {
		return err
	}
	return load.WriteReport(w, spec, res)
}

type liveOutcome int

const (
	liveCompleted liveOutcome = iota
	liveShed
	liveRejected
	liveFailed
)

// submitLive posts one arrival's job with ?wait=1 and classifies the
// outcome. A 429 whose body mentions shedding counts as shed, any other
// 429 as rejected; transport errors and failed jobs count as failed. The
// client does not retry: open-loop load measures the fleet as offered,
// and the Retry-After hint is for closed-loop clients like dispatch.
func submitLive(client *http.Client, target string, spec load.Spec, a load.Arrival) (liveOutcome, time.Duration) {
	cs := &spec.Clients[a.Client]
	job := cs.Mix[a.Mix].Job
	job.Client = cs.Name
	job.SLO = cs.SLO
	body, err := json.Marshal(job)
	if err != nil {
		return liveFailed, 0
	}
	begin := time.Now()
	resp, err := client.Post(target+"/api/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return liveFailed, 0
	}
	latency := time.Since(begin)
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if cerr := resp.Body.Close(); cerr != nil {
		return liveFailed, latency
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		if bytes.Contains(payload, []byte("shed")) {
			return liveShed, latency
		}
		return liveRejected, latency
	}
	if resp.StatusCode/100 != 2 {
		return liveFailed, latency
	}
	var st serve.Status
	if err := json.Unmarshal(payload, &st); err != nil || st.State != serve.StateDone {
		return liveFailed, latency
	}
	return liveCompleted, latency
}
