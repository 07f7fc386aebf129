// Command loostrace renders the span streams written by loosweep and
// loosimd tracing (-trace span.jsonl) into per-job waterfalls and a
// fleet-wide stage attribution.
//
// Usage:
//
//	loosweep -backends http://a:8087 -fig 4 -trace spans.jsonl && loostrace spans.jsonl
//	loostrace -top 3 spans.jsonl     # only the 3 slowest traces' waterfalls
//	loostrace -json spans.jsonl      # machine-readable fleet summary
//	cat a.jsonl b.jsonl | loostrace -
//
// Coordinator and backend spans that share a trace ID are stitched into one
// tree: concatenating the two sides' span files (the trace IDs and span IDs
// are deterministic, so the files agree) yields complete submit-to-cycle-loop
// waterfalls. A span whose parent is absent from the input renders as an
// extra root, so a backend-only file still produces a readable forest.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"loosesim/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loostrace: ")

	var (
		asJSON  = flag.Bool("json", false, "emit the fleet summary as JSON instead of text")
		top     = flag.Int("top", 0, "waterfalls for only the N slowest traces (0 = all)")
		summary = flag.Bool("summary", false, "suppress waterfalls; fleet summary only")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: loostrace [-json] [-top N] [-summary] <spans.jsonl | ->")
	}

	spans, err := readSpans(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	if len(spans) == 0 {
		log.Fatal("no spans in input")
	}
	traces := buildTraces(spans)
	fleet := summarize(traces)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fleet); err != nil {
			log.Fatal(err)
		}
		return
	}

	w := bufio.NewWriter(os.Stdout)
	if !*summary {
		shown := traces
		if *top > 0 && *top < len(traces) {
			byDur := make([]*traceTree, len(traces))
			copy(byDur, traces)
			sort.SliceStable(byDur, func(i, j int) bool { return byDur[i].duration() > byDur[j].duration() })
			shown = byDur[:*top]
		}
		for _, tt := range shown {
			printWaterfall(w, tt)
		}
	}
	printSummary(w, fleet)
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}

// readSpans parses one span per JSONL line from the named file or stdin.
func readSpans(name string) ([]trace.Span, error) {
	var r io.Reader = os.Stdin
	if name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Printf("close %s: %v", name, err)
			}
		}()
		r = f
	}
	var spans []trace.Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var s trace.Span
		if err := json.Unmarshal([]byte(text), &s); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if s.Trace == "" || s.Span == 0 {
			return nil, fmt.Errorf("line %d: span missing trace or span ID", line)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}

// node is one span plus its resolved children, ordered by span ID (the IDs
// encode the tree path, so sibling order is creation order).
type node struct {
	span     trace.Span
	children []*node
}

// traceTree is all of one trace's spans stitched into a forest (a single
// tree when the input holds both sides of the job).
type traceTree struct {
	id    string
	roots []*node
	nodes int
}

// duration is the whole trace's wall span: max end minus min start over
// every member span. Zero when the stream was recorded with no clock.
func (t *traceTree) duration() time.Duration {
	var lo, hi int64
	first := true
	var walk func(n *node)
	walk = func(n *node) {
		if first || n.span.Start < lo {
			lo = n.span.Start
		}
		if first || n.span.End > hi {
			hi = n.span.End
		}
		first = false
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, r := range t.roots {
		walk(r)
	}
	return time.Duration(hi - lo)
}

// start is the trace's earliest span start.
func (t *traceTree) start() int64 {
	lo := int64(0)
	first := true
	var walk func(n *node)
	walk = func(n *node) {
		if first || n.span.Start < lo {
			lo = n.span.Start
		}
		first = false
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, r := range t.roots {
		walk(r)
	}
	return lo
}

// buildTraces groups spans by trace ID and links parents to children.
// Traces come back in first-appearance order of the input, which for
// sorted span files (trace.Writer output) is canonical order.
func buildTraces(spans []trace.Span) []*traceTree {
	byTrace := make(map[string][]trace.Span)
	var order []string
	for _, s := range spans {
		if _, seen := byTrace[s.Trace]; !seen {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	out := make([]*traceTree, 0, len(order))
	for _, id := range order {
		members := byTrace[id]
		sort.SliceStable(members, func(i, j int) bool {
			return pathLess(members[i].Span, members[j].Span)
		})
		nodes := make(map[uint64]*node, len(members))
		tt := &traceTree{id: id}
		for _, s := range members {
			if _, dup := nodes[s.Span]; dup {
				// Two runs concatenated into one file: keep the first copy.
				continue
			}
			n := &node{span: s}
			nodes[s.Span] = n
			if parent, ok := nodes[s.Parent]; ok && s.Parent != 0 {
				parent.children = append(parent.children, n)
			} else {
				tt.roots = append(tt.roots, n)
			}
		}
		tt.nodes = len(nodes)
		out = append(out, tt)
	}
	return out
}

// pathLess orders span IDs by their tree path (depth-first order), not
// numerically: 1 < 257 < 257*256+1 < 258.
func pathLess(a, b uint64) bool {
	pa, pb := idPath(a), idPath(b)
	for i := 0; i < len(pa) && i < len(pb); i++ {
		if pa[i] != pb[i] {
			return pa[i] < pb[i]
		}
	}
	return len(pa) < len(pb)
}

// idPath decomposes a tree-path span ID into its per-level indices.
func idPath(id uint64) []byte {
	var rev [8]byte
	n := 0
	for id > 0 {
		rev[n] = byte(id & 0xff)
		id >>= 8
		n++
	}
	path := make([]byte, n)
	for i := 0; i < n; i++ {
		path[i] = rev[n-1-i]
	}
	return path
}

// printWaterfall renders one trace as an indented span tree with offsets
// relative to the trace start.
func printWaterfall(w io.Writer, tt *traceTree) {
	key := ""
	for _, r := range tt.roots {
		if r.span.Key != "" {
			key = r.span.Key
			break
		}
	}
	header := fmt.Sprintf("trace %s", tt.id)
	if key != "" {
		header += "  key=" + shorten(key, 24)
	}
	if d := tt.duration(); d > 0 {
		header += fmt.Sprintf("  %s", d)
	}
	fmt.Fprintln(w, header)
	base := tt.start()
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		s := n.span
		label := s.Name
		if s.Target != "" {
			label += " → " + s.Target
		}
		if s.Winner {
			label += " (winner)"
		}
		width := 46 - 2*depth
		if width < len(label) {
			width = len(label)
		}
		line := fmt.Sprintf("%s%-*s", strings.Repeat("  ", depth+1), width, label)
		if s.End > s.Start || s.Start > base {
			line += fmt.Sprintf("  +%-10s %-10s", time.Duration(s.Start-base), time.Duration(s.End-s.Start))
		}
		if s.Status != "" {
			line += "  " + s.Status
		}
		if s.Detail != "" {
			line += "  (" + shorten(s.Detail, 40) + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	for _, r := range tt.roots {
		walk(r, 0)
	}
	fmt.Fprintln(w)
}

func shorten(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// StageStat aggregates one span name across the fleet. SelfNS is the
// stage's own time: duration minus time covered by its children, clamped at
// zero — the quantity that sums to total trace time without double
// counting, so it is what attributes a slow sweep to a stage.
type StageStat struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	Errors  int    `json:"errors"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// PathStat is one distinct critical path and how many traces took it.
type PathStat struct {
	Path   string `json:"path"`
	Count  int    `json:"count"`
	MeanNS int64  `json:"mean_ns"`
}

// Fleet is the whole input's summary.
type Fleet struct {
	Traces        int         `json:"traces"`
	Spans         int         `json:"spans"`
	Stages        []StageStat `json:"stages"`
	CriticalPaths []PathStat  `json:"critical_paths"`
}

// summarize computes the fleet-wide stage attribution and critical paths.
func summarize(traces []*traceTree) Fleet {
	stageIdx := make(map[string]int)
	var stages []StageStat
	pathIdx := make(map[string]int)
	var paths []PathStat
	fleet := Fleet{Traces: len(traces)}

	for _, tt := range traces {
		fleet.Spans += tt.nodes
		var walk func(n *node)
		walk = func(n *node) {
			i, ok := stageIdx[n.span.Name]
			if !ok {
				i = len(stages)
				stageIdx[n.span.Name] = i
				stages = append(stages, StageStat{Name: n.span.Name})
			}
			dur := int64(n.span.Duration())
			var covered int64
			for _, c := range n.children {
				covered += int64(c.span.Duration())
				walk(c)
			}
			self := dur - covered
			if self < 0 {
				self = 0 // concurrent children (hedges) overlap the parent
			}
			stages[i].Count++
			stages[i].TotalNS += dur
			stages[i].SelfNS += self
			if n.span.Status == "error" || n.span.Status == "failed" {
				stages[i].Errors++
			}
		}
		for _, r := range tt.roots {
			walk(r)
		}

		p := criticalPath(tt)
		j, ok := pathIdx[p]
		if !ok {
			j = len(paths)
			pathIdx[p] = j
			paths = append(paths, PathStat{Path: p})
		}
		paths[j].Count++
		paths[j].MeanNS += int64(tt.duration()) // sum now, divide below
	}
	for i := range paths {
		if paths[i].Count > 0 {
			paths[i].MeanNS /= int64(paths[i].Count)
		}
	}
	sort.SliceStable(stages, func(i, j int) bool {
		if stages[i].SelfNS != stages[j].SelfNS {
			return stages[i].SelfNS > stages[j].SelfNS
		}
		return stages[i].Name < stages[j].Name
	})
	sort.SliceStable(paths, func(i, j int) bool {
		if paths[i].Count != paths[j].Count {
			return paths[i].Count > paths[j].Count
		}
		return paths[i].Path < paths[j].Path
	})
	fleet.Stages = stages
	fleet.CriticalPaths = paths
	return fleet
}

// criticalPath walks each root toward a leaf, at every level following the
// winning child if one is marked, otherwise the longest-running child
// (lowest span ID on ties, for determinism under a nil clock), and joins
// the stage names.
func criticalPath(tt *traceTree) string {
	var names []string
	for _, r := range tt.roots {
		n := r
		for {
			names = append(names, n.span.Name)
			if len(n.children) == 0 {
				break
			}
			best := n.children[0]
			for _, c := range n.children[1:] {
				if c.span.Winner && !best.span.Winner {
					best = c
					continue
				}
				if best.span.Winner {
					continue
				}
				if c.span.Duration() > best.span.Duration() {
					best = c
				}
			}
			n = best
		}
	}
	return strings.Join(names, " → ")
}

// printSummary renders the fleet summary as text tables.
func printSummary(w io.Writer, f Fleet) {
	fmt.Fprintf(w, "fleet: %d traces, %d spans\n\n", f.Traces, f.Spans)
	fmt.Fprintf(w, "%-12s %8s %8s %14s %14s\n", "stage", "spans", "errors", "total", "self")
	for _, s := range f.Stages {
		fmt.Fprintf(w, "%-12s %8d %8d %14s %14s\n",
			s.Name, s.Count, s.Errors, time.Duration(s.TotalNS), time.Duration(s.SelfNS))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "critical paths:")
	for _, p := range f.CriticalPaths {
		fmt.Fprintf(w, "  %4d×  %-12s %s\n", p.Count, time.Duration(p.MeanNS), p.Path)
	}
}
