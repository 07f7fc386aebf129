// Package obs is the simulator's observability layer: a structured stream
// of micro-architectural loop events, a deterministic per-interval time
// series snapshotted from the machine's counters, and per-loop delay
// aggregation built on stats.Histogram.
//
// The layer is strictly passive. Sinks observe the machine and never steer
// it: enabling any probe must not change a single counter of the
// simulation (pipeline enforces this with a determinism test). A nil sink
// costs one pointer compare per instrumentation site, so the whole layer
// is free when disabled.
//
// Simulated time only: everything in this package is keyed to the cycle
// counter. Host-side throughput (wall-clock KIPS) is measured in the
// commands, never here, keeping internal/ clean under simlint's noclock
// analyzer.
package obs

import (
	"fmt"
	"strconv"
)

// EventKind identifies which micro-architectural loop a traversal belongs
// to.
type EventKind uint8

// The loop traversals the machine reports. Each event corresponds to one
// recovery of a loose loop (or, for EvFrontStall, the front-end side
// effect of one).
const (
	// EvBranchMispredict is one branch resolution loop recovery; Delay is
	// the measured fetch→resolve latency of the mispredicted branch.
	EvBranchMispredict EventKind = iota
	// EvLoadMisspec is a failed load-hit speculation; Delay is the
	// remaining cycles until the data actually returns.
	EvLoadMisspec
	// EvDataReissue is an instruction reverting to waiting after consuming
	// data inside a producer's mis-speculation shadow; Delay is the
	// feedback delay before it may reissue.
	EvDataReissue
	// EvLoadRefetch is a refetch-policy load recovery (flush at fetch).
	EvLoadRefetch
	// EvMemOrderTrap is a load/store reorder trap (memory dependence loop).
	EvMemOrderTrap
	// EvTLBTrap is a data-TLB miss trap (memory trap loop).
	EvTLBTrap
	// EvOperandMiss is one DRA operand-delivery miss (per source operand).
	EvOperandMiss
	// EvOperandReissue is an instruction reissued because at least one of
	// its operands missed all DRA delivery paths; Delay is the recovery
	// latency (feedback delay plus the register file read).
	EvOperandReissue
	// EvFrontStall is a front-end stall installed while a DRA operand-miss
	// recovery occupies the register file; Delay is the stall length.
	EvFrontStall

	// NumEventKinds bounds the enumeration.
	NumEventKinds
)

var eventKindNames = [NumEventKinds]string{
	"branch-mispredict",
	"load-misspec",
	"data-reissue",
	"load-refetch",
	"mem-order-trap",
	"tlb-trap",
	"operand-miss",
	"operand-reissue",
	"front-stall",
}

// String names the kind as it appears on the wire.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// ParseEventKind inverts EventKind.String.
func ParseEventKind(s string) (EventKind, error) {
	for i, n := range eventKindNames {
		if n == s {
			return EventKind(i), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

// MarshalJSON encodes the kind by name, keeping the on-disk stream
// self-describing and stable against reorderings of the constants.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, k.String()), nil
}

// UnmarshalJSON decodes a kind name.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("obs: bad event kind %s: %w", b, err)
	}
	parsed, err := ParseEventKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// Event is one structured record of a loop traversal: which loop, when,
// which instruction, and what the traversal cost. Events are emitted in
// cycle order for the whole run (warmup included — warmup transients are
// part of what the stream exists to show).
type Event struct {
	Cycle  int64     `json:"cycle"`
	Kind   EventKind `json:"kind"`
	Thread int       `json:"thread"`
	Seq    uint64    `json:"seq"`
	PC     uint64    `json:"pc"`
	// Delay is the loop's measured cost in cycles; its exact meaning is
	// per-kind (see the EventKind constants). Zero for kinds with no
	// associated latency (EvOperandMiss).
	Delay int64 `json:"delay"`
}

// EventSink receives the loop-event stream. Implementations must not
// influence the simulation; they are observers only.
type EventSink interface {
	Event(e Event)
}

// EventFunc adapts a function to the EventSink interface.
type EventFunc func(Event)

// Event calls f.
func (f EventFunc) Event(e Event) {
	// simlint:ignore ifacedispatch adapter type: the indirection IS the sanctioned EventSink seam
	f(e)
}
