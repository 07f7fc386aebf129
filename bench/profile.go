package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// stack is one sampled call stack, leaf first, with the CPU time sampled
// in it.
type stack struct {
	cpu    time.Duration
	frames []string
}

const separator = "-----------+"

// parseTraces reads the text `go tool pprof -traces` prints: a header,
// then one block per distinct stack, each opened by a separator line,
// whose first line carries the sampled time before the leaf frame.
// Inlined frames carry an " (inline)" suffix, which is dropped.
func parseTraces(r io.Reader) ([]stack, error) {
	var out []stack
	var cur *stack
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, separator) {
			out = append(out, stack{})
			cur = &out[len(out)-1]
			continue
		}
		if cur == nil || strings.TrimSpace(line) == "" {
			continue // header, or a blank line
		}
		frame := strings.TrimSpace(line)
		if len(cur.frames) == 0 && cur.cpu == 0 {
			val, rest, ok := strings.Cut(frame, " ")
			if !ok {
				return nil, fmt.Errorf("pprof traces: malformed stack head %q", line)
			}
			d, err := parseCPU(val)
			if err != nil {
				return nil, err
			}
			cur.cpu = d
			frame = strings.TrimSpace(rest)
		}
		cur.frames = append(cur.frames, strings.TrimSuffix(frame, " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// A trailing separator opens no stack.
	if n := len(out); n > 0 && len(out[n-1].frames) == 0 {
		out = out[:n-1]
	}
	return out, nil
}

// parseCPU reads pprof's sample-time rendering ("10ms", "1.20s", "2mins").
func parseCPU(s string) (time.Duration, error) {
	for _, u := range [][2]string{{"mins", "m"}, {"min", "m"}, {"hrs", "h"}, {"hr", "h"}} {
		if strings.HasSuffix(s, u[0]) {
			s = strings.TrimSuffix(s, u[0]) + u[1]
			break
		}
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("pprof traces: sample time %q: %w", s, err)
	}
	return d, nil
}

// readProfile runs `go tool pprof -traces` on a CPU profile and parses it.
func readProfile(ctx context.Context, path string) ([]stack, error) {
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", path)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(errb.String()))
	}
	return parseTraces(&out)
}

const (
	pkgPrefix = "loosesim/internal/"
	stepFrame = pkgPrefix + "pipeline.(*Machine).step"
)

// stages maps each function (*Machine).step calls to its stage name.
var stages = map[string]string{
	pkgPrefix + "pipeline.(*Machine).issue":          "issue",
	pkgPrefix + "pipeline.(*Machine).fetch":          "fetch",
	pkgPrefix + "pipeline.(*Machine).processEvents":  "process_events",
	pkgPrefix + "pipeline.(*Machine).rename":         "rename",
	pkgPrefix + "pipeline.(*Machine).retire":         "retire",
	pkgPrefix + "pipeline.(*Machine).reclaimDead":    "reclaim_dead",
	pkgPrefix + "pipeline.(*Machine).attributeCycle": "attribute_cycle",
	pkgPrefix + "pipeline.(*Machine).refreshMemDep":  "memdep",
	pkgPrefix + "bpred.(*StoreWait).Tick":            "memdep",
	pkgPrefix + "iq.(*Queue).Retained":               "iq_retained",
}

// stageNames are the stage shares reported, in report order; the IQ's
// per-cycle Retained count is reported as iq.retained_share.
var stageNames = []string{"issue", "fetch", "process_events", "rename", "retire", "reclaim_dead", "attribute_cycle", "memdep"}

// layerPackages are the simulator packages whose cumulative CPU share is
// reported as <pkg>.share.
var layerPackages = []string{"iq", "workload", "bpred", "mem", "core", "regfile", "fwd", "uop", "snap"}

// shares attributes profile CPU to kernel stages and simulator layers,
// each as a percentage of all CPU sampled in the profile. A layer's
// share is cumulative: every stack with one of its frames counts, so
// shares of nested layers overlap. A stage is the function step called
// on the stack; share.step_covered is the part of step's CPU the named
// stages (and the IQ Retained count) account for.
func shares(stacks []stack) map[string]float64 {
	var total, step, covered time.Duration
	stage := map[string]time.Duration{}
	layer := map[string]time.Duration{}
	var selectCPU, retainedCPU, warmMem time.Duration
	for _, s := range stacks {
		total += s.cpu
		var warm, inMem, hasSelect, hasRetained bool
		seen := map[string]bool{}
		for i, f := range s.frames {
			if f == stepFrame && !seen["step"] {
				seen["step"] = true
				step += s.cpu
				if i > 0 {
					if name, ok := stages[s.frames[i-1]]; ok {
						stage[name] += s.cpu
						covered += s.cpu
					}
				}
			}
			switch f {
			case pkgPrefix + "iq.(*Queue).SelectOldestReady":
				hasSelect = true
			case pkgPrefix + "iq.(*Queue).Retained":
				hasRetained = true
			case pkgPrefix + "pipeline.(*Machine).WarmForward":
				warm = true
			}
			if rest, ok := strings.CutPrefix(f, pkgPrefix); ok {
				pkg, _, _ := strings.Cut(rest, ".")
				if !seen[pkg] {
					seen[pkg] = true
					layer[pkg] += s.cpu
				}
				inMem = inMem || pkg == "mem"
			}
		}
		if hasSelect {
			selectCPU += s.cpu
		}
		if hasRetained {
			retainedCPU += s.cpu
		}
		if warm && inMem {
			warmMem += s.cpu
		}
	}
	pct := func(d, of time.Duration) float64 {
		if of == 0 {
			return 0
		}
		return 100 * float64(d) / float64(of)
	}
	out := map[string]float64{
		"share.step":         pct(step, total),
		"share.step_covered": pct(covered, step),
		"iq.select_share":    pct(selectCPU, total),
		"iq.retained_share":  pct(retainedCPU, total),
		"mem.warm_share":     pct(warmMem, total),
	}
	for _, n := range stageNames {
		out["share."+n] = pct(stage[n], total)
	}
	for _, p := range layerPackages {
		out[p+".share"] = pct(layer[p], total)
	}
	return out
}
