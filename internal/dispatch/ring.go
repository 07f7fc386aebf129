package dispatch

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ringVnodes is the number of virtual nodes per backend on the hash ring.
// 64 points per backend keeps the expected key share within a few percent
// of uniform for small fleets while keeping the ring tiny.
const ringVnodes = 64

// ringPoint is one virtual node: a position on the 64-bit ring and the
// backend that owns it.
type ringPoint struct {
	hash    uint64
	backend int
}

// ring is a consistent-hash ring over the configured backends. A job's
// attempts walk it clockwise from the job's key, one distinct backend per
// attempt, so attempt 0 goes to the key's owner and a retry goes to the
// backend that would own the key if the owner were gone. Point positions
// depend only on URLs, so a ring built without one backend keeps every
// key that backend did not own where it was.
type ring struct {
	points   []ringPoint
	backends int
}

// newRing builds the ring for a fixed backend list. The point positions
// depend only on the backend URLs, so the same fleet always shards the
// same way across processes and runs.
func newRing(backends []string) *ring {
	pts := make([]ringPoint, 0, len(backends)*ringVnodes)
	for i, url := range backends {
		for v := 0; v < ringVnodes; v++ {
			pts = append(pts, ringPoint{hash: hash64(url + "#" + strconv.Itoa(v)), backend: i})
		}
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].hash != pts[b].hash {
			return pts[a].hash < pts[b].hash
		}
		return pts[a].backend < pts[b].backend
	})
	return &ring{points: pts, backends: len(backends)}
}

// owner returns the backend for a job's attempt: the (attempt mod n)-th
// distinct backend met clockwise from hash(key), n being the fleet size,
// so attempts 0..n-1 visit every backend once and then wrap. Returns -1
// for an empty ring.
func (r *ring) owner(key string, attempt int) int {
	n := len(r.points)
	if n == 0 {
		return -1
	}
	h := hash64(key)
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	skip := attempt % r.backends
	seen := make([]bool, r.backends)
	for k := 0; k < n; k++ {
		b := r.points[(start+k)%n].backend
		if seen[b] {
			continue
		}
		if skip == 0 {
			return b
		}
		seen[b] = true
		skip--
	}
	return -1 // unreachable: one lap of the ring meets every backend
}

// hash64 is the ring's position function (FNV-1a, stable across runs and
// platforms).
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
