package dispatch

import (
	"strings"
	"testing"
)

// TestEventKindString pins the stable string names: every kind must render
// a non-numeric name, and an out-of-range kind must say what it is.
func TestEventKindString(t *testing.T) {
	wantNames := map[EventKind]string{
		EvRequest:       "request",
		EvCacheHit:      "cache-hit",
		EvRetry:         "retry",
		EvLocalFallback: "local-fallback",
		EvBackpressure:  "backpressure",
	}
	if len(wantNames) != int(NumEventKinds) {
		t.Fatalf("test covers %d kinds, enum has %d — extend the table", len(wantNames), NumEventKinds)
	}
	for k := EventKind(0); k < NumEventKinds; k++ {
		name := k.String()
		if want := wantNames[k]; name != want {
			t.Errorf("kind %d String() = %q, want %q", k, name, want)
		}
		if strings.ContainsAny(name, "0123456789(") {
			t.Errorf("kind %d renders numerically as %q; names must be self-describing", k, name)
		}
	}
	if got := NumEventKinds.String(); !strings.Contains(got, "dispatch-event") {
		t.Errorf("out-of-range String() = %q", got)
	}
}
