// Command loostrace renders the JSONL streams the simulator and its
// serving stack write: host-time spans from loosweep and loosimd tracing
// (-trace), and the simulated-time loop-event and interval streams from
// loosim (-events, -intervals).
//
// Usage:
//
//	loosweep -backends http://a:8087 -fig 4 -trace spans.jsonl && loostrace spans.jsonl
//	loostrace -top 3 spans.jsonl     # only the 3 slowest traces' waterfalls
//	loostrace -json spans.jsonl      # machine-readable fleet summary
//	cat a.jsonl b.jsonl | loostrace -
//	loosim -bench apsi -dra -events ev.jsonl -intervals iv.jsonl
//	loostrace ev.jsonl iv.jsonl      # per-loop table and interval summary
//
// Each record is sorted by its keys: a "trace" key marks a span, a "kind"
// key a loop event, an "index" key an interval; any other record is an
// error naming its file and line. loostrace prints one section per record
// kind present, in that order.
//
// Spans: coordinator and backend spans that share a trace ID are stitched
// into one tree: concatenating the two sides' span files (the trace IDs and
// span IDs are deterministic, so the files agree) yields complete
// submit-to-cycle-loop waterfalls. A span whose parent is absent from the
// input renders as an extra root, so a backend-only file still produces a
// readable forest. -json, -top and -summary apply to this section only.
//
// Loop events yield a per-loop table: traversal count, mean and p99 delay,
// and total cycles lost per loose loop. Intervals yield run totals,
// per-interval IPC spread, the Figure-9-style operand delivery shares
// re-aggregated from raw counts, and the worst operand-reissue burst.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"loosesim/internal/obs"
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
	if flag.NArg() == 0 {
		log.Fatal("usage: loostrace [-json] [-top N] [-summary] <file.jsonl | -> ...")
	}

	st, err := readStreams(flag.Args())
	if err != nil {
		log.Fatal(err)
	}
	if len(st.spans) == 0 && st.events == 0 && len(st.intervals) == 0 {
		log.Fatal("no records in input")
	}

	w := bufio.NewWriter(os.Stdout)
	if err := render(w, st, *asJSON, *top, *summary); err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}

// render prints one section per record kind present, blank-line separated:
// spans, then the per-loop table, then the interval summary.
func render(w io.Writer, st *streams, asJSON bool, top int, summaryOnly bool) error {
	started := false
	section := func() {
		if started {
			fmt.Fprintln(w)
		}
		started = true
	}
	if len(st.spans) > 0 {
		section()
		if err := renderSpans(w, st.spans, asJSON, top, summaryOnly); err != nil {
			return err
		}
	}
	if st.events > 0 {
		section()
		fmt.Fprintf(w, "loop events      %d\n", st.events)
		fmt.Fprint(w, st.delays.Table())
	}
	if len(st.intervals) > 0 {
		section()
		summarizeIntervals(w, st.intervals)
	}
	return nil
}

// renderSpans prints the span section: the fleet summary as JSON, or the
// waterfalls (all, the top N slowest, or none) followed by the text summary.
func renderSpans(w io.Writer, spans []trace.Span, asJSON bool, top int, summaryOnly bool) error {
	traces := buildTraces(spans)
	fleet := summarize(traces)
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(fleet)
	}
	if !summaryOnly {
		shown := traces
		if top > 0 && top < len(traces) {
			byDur := make([]*traceTree, len(traces))
			copy(byDur, traces)
			sort.SliceStable(byDur, func(i, j int) bool { return byDur[i].duration() > byDur[j].duration() })
			shown = byDur[:top]
		}
		for _, tt := range shown {
			printWaterfall(w, tt)
		}
	}
	printSummary(w, fleet)
	return nil
}

// streams holds every record read, by kind. Loop events are aggregated as
// they arrive; spans and intervals are kept for their summaries.
type streams struct {
	spans     []trace.Span
	delays    *obs.LoopDelays
	events    int
	intervals []obs.Interval
}

// recordKeys holds the keys that tell the three record kinds apart.
type recordKeys struct {
	Trace json.RawMessage `json:"trace"`
	Kind  json.RawMessage `json:"kind"`
	Index json.RawMessage `json:"index"`
}

func newStreams() *streams { return &streams{delays: obs.NewLoopDelays(0)} }

// readStreams reads every named JSONL file ("-" = stdin) in order.
func readStreams(names []string) (*streams, error) {
	st := newStreams()
	for _, name := range names {
		if err := st.readFile(name); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (st *streams) readFile(name string) error {
	if name == "-" {
		return st.read("stdin", os.Stdin)
	}
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	err = st.read(name, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// read adds one stream's records, one per non-blank line.
func (st *streams) read(name string, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		rec := bytes.TrimSpace(sc.Bytes())
		if len(rec) == 0 {
			continue
		}
		if err := st.add(rec); err != nil {
			return fmt.Errorf("%s: line %d: %w", name, line, err)
		}
	}
	return sc.Err()
}

// add sorts one record by its keys and decodes it as that kind.
func (st *streams) add(rec []byte) error {
	var keys recordKeys
	if err := json.Unmarshal(rec, &keys); err != nil {
		return err
	}
	switch {
	case keys.Trace != nil:
		var s trace.Span
		if err := json.Unmarshal(rec, &s); err != nil {
			return err
		}
		if s.Trace == "" || s.Span == 0 {
			return errors.New("span missing trace or span ID")
		}
		st.spans = append(st.spans, s)
	case keys.Kind != nil:
		var e obs.Event
		if err := json.Unmarshal(rec, &e); err != nil {
			return err
		}
		st.delays.Event(e)
		st.events++
	case keys.Index != nil:
		iv, err := decodeInterval(rec)
		if err != nil {
			return err
		}
		st.intervals = append(st.intervals, iv)
	default:
		return errors.New("not a span, loop event or interval: no trace, kind or index key")
	}
	return nil
}

// summedFields are the interval fields summarizeIntervals reads, beyond
// the "index" that makes a record an interval. A record missing one is
// rejected rather than read as zero, which would under-report the run
// without a sign.
var summedFields = []string{
	"start_cycle", "end_cycle", "retired", "ipc",
	"branches", "mispredicts", "loads", "l1_misses", "l2_misses",
	"operands_read", "op_preread", "op_forwarded", "op_crc", "op_misses",
	"operand_reissues", "data_reissues", "useless_work",
}

// decodeInterval decodes one interval record that has every summed field.
func decodeInterval(rec []byte) (obs.Interval, error) {
	var iv obs.Interval
	if err := json.Unmarshal(rec, &iv); err != nil {
		return iv, err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(rec, &fields); err != nil {
		return iv, err
	}
	for _, name := range summedFields {
		if _, ok := fields[name]; !ok {
			return iv, fmt.Errorf("interval record missing field %q", name)
		}
	}
	return iv, nil
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

// bounds returns the trace's earliest span start and latest span end.
func (t *traceTree) bounds() (lo, hi int64) {
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
	return lo, hi
}

// duration is the whole trace's wall span: max end minus min start over
// every member span. Zero when the stream was recorded with no clock.
func (t *traceTree) duration() time.Duration {
	lo, hi := t.bounds()
	return time.Duration(hi - lo)
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
	base, _ := tt.bounds()
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

// summarizeIntervals prints run totals, the IPC spread, the operand
// delivery shares re-aggregated from the raw counts, and the worst
// operand-reissue interval.
func summarizeIntervals(w io.Writer, series []obs.Interval) {
	var (
		cycles                 int64
		retired                uint64
		branches, mispredicts  uint64
		loads, l1, l2          uint64
		reads, pre, fw, crc    uint64
		misses, opRe, dataRe   uint64
		useless                uint64
		minIPC, maxIPC, sumIPC float64
		peak                   obs.Interval
	)
	minIPC = series[0].IPC
	for _, iv := range series {
		cycles += iv.Cycles()
		retired += iv.Retired
		branches += iv.Branches
		mispredicts += iv.Mispredicts
		loads += iv.Loads
		l1 += iv.L1Misses
		l2 += iv.L2Misses
		reads += iv.OperandsRead
		pre += iv.OperandPreRead
		fw += iv.OperandForwarded
		crc += iv.OperandCRC
		misses += iv.OperandMisses
		opRe += iv.OperandReissues
		dataRe += iv.DataReissues
		useless += iv.UselessWork
		sumIPC += iv.IPC
		if iv.IPC < minIPC {
			minIPC = iv.IPC
		}
		if iv.IPC > maxIPC {
			maxIPC = iv.IPC
		}
		if iv.OperandReissues > peak.OperandReissues {
			peak = iv
		}
	}
	aggIPC := 0.0
	if cycles > 0 {
		aggIPC = float64(retired) / float64(cycles)
	}
	fmt.Fprintf(w, "intervals        %d (%d cycles, %d retired, IPC %.3f)\n",
		len(series), cycles, retired, aggIPC)
	fmt.Fprintf(w, "ipc spread       min %.3f  mean %.3f  max %.3f\n",
		minIPC, sumIPC/float64(len(series)), maxIPC)
	if branches > 0 {
		fmt.Fprintf(w, "branches         %d (mispredict %.2f%%)\n",
			branches, 100*float64(mispredicts)/float64(branches))
	}
	if loads > 0 {
		fmt.Fprintf(w, "loads            %d (L1 miss %.2f%%, L2 misses %d)\n",
			loads, 100*float64(l1)/float64(loads), l2)
	}
	if reads > 0 {
		fmt.Fprintf(w, "operand delivery pre-read %.1f%%, forwarded %.1f%%, CRC %.1f%%, miss %.3f%% of %d reads\n",
			100*float64(pre)/float64(reads), 100*float64(fw)/float64(reads),
			100*float64(crc)/float64(reads), 100*float64(misses)/float64(reads), reads)
		fmt.Fprintf(w, "operand reissues %d total; peak %d in interval %d [cycle %d-%d]\n",
			opRe, peak.OperandReissues, peak.Index, peak.StartCycle, peak.EndCycle)
	}
	fmt.Fprintf(w, "reissued work    %d data reissues, %d useless executions\n", dataRe, useless)
}
