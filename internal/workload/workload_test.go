package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"loosesim/internal/isa"
	"loosesim/internal/stats"
)

func TestAllProfilesValidate(t *testing.T) {
	for _, name := range Names() {
		wl, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		for _, p := range wl.Threads {
			if err := p.Validate(); err != nil {
				t.Errorf("profile %s: %v", p.Name, err)
			}
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nosuch"); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestSMTPairs(t *testing.T) {
	wl, err := ByName("apsi-swim")
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Threads) != 2 || wl.Threads[0].Name != "apsi" || wl.Threads[1].Name != "swim" {
		t.Errorf("apsi-swim threads = %v", wl.Threads)
	}
}

func TestPaperOrderComplete(t *testing.T) {
	order := PaperOrder()
	if len(order) != 13 {
		t.Fatalf("paper order has %d entries, want 13", len(order))
	}
	for _, n := range order {
		if _, err := ByName(n); err != nil {
			t.Errorf("paper-order benchmark %q unknown: %v", n, err)
		}
	}
	if len(SingleThreaded()) != 10 {
		t.Error("want 10 single-threaded benchmarks")
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	good := profiles["gcc"]
	cases := []func(*Profile){
		func(p *Profile) { p.LoadFrac = 0.9; p.StoreFrac = 0.9 }, // mix > 1
		func(p *Profile) { p.DepGeoP = 0 },
		func(p *Profile) { p.DepGeoP = 1 },
		func(p *Profile) { p.HotBytes = 0 },
		func(p *Profile) { p.StreamBytes = 0 },
		func(p *Profile) { p.MidBytes = 0 },
		func(p *Profile) { p.NumStreams = 0 },
		func(p *Profile) { p.Stride = 0 },
		func(p *Profile) { p.ChainFrac = -0.1 },
		func(p *Profile) { p.BiasedSiteFrac = 0.8; p.PatternSiteFrac = 0.5 },
		func(p *Profile) { p.StreamFrac = 0.8; p.MidFrac = 0.3 },
		func(p *Profile) { p.PageWalkFrac = 0.1; p.PageWalkSpan = 0 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := profiles["gcc"]
	a := NewGenerator(p, 42, 0)
	b := NewGenerator(p, 42, 0)
	for i := 0; i < 5000; i++ {
		ia, ib := a.Next(), b.Next()
		if ia != ib {
			t.Fatalf("instruction %d diverged: %v vs %v", i, ia, ib)
		}
	}
	if a.Generated() != 5000 {
		t.Errorf("Generated = %d, want 5000", a.Generated())
	}
}

// TestGeometricHoistExact: the generator's geometric draws — log(1-p)
// hoisted into a per-generator table that inverts the CDF by comparison
// against the thresholds (1-p)^j — give exactly the closed form
// int(log(1-u)/log(1-p)) evaluated per draw, so every stream stays
// bit-identical. It checks random draws on each profile's DepGeoP and on
// siteSkewP, then every u within ±2000 ulps of each threshold and of both
// edges of its guard band, for those parameters, the extremes p = 1e-9
// and p = 0.999999, and p = 0.5.
func TestGeometricHoistExact(t *testing.T) {
	closedForm := func(u, p float64) int { return int(math.Log(1-u) / math.Log(1-p)) }
	// p = 0.5 puts every threshold exactly on a search-bucket boundary.
	ps := []float64{siteSkewP, 1e-9, 0.999999, 0.5}
	for _, name := range stats.SortedKeys(profiles) {
		g := NewGenerator(profiles[name], 7, 0)
		ref := rand.New(rand.NewSource(7))
		for _, c := range []struct {
			tab *geoTable
			p   float64
		}{{&g.depGeo, profiles[name].DepGeoP}, {&g.siteGeo, siteSkewP}} {
			for i := 0; i < 20_000; i++ {
				u := ref.Float64()
				if got, want := c.tab.draw(u), closedForm(u, c.p); got != want {
					t.Fatalf("%s p=%v draw %d (u=%v): table %d, closed form %d", name, c.p, i, u, got, want)
				}
			}
		}
		ps = append(ps, profiles[name].DepGeoP)
	}

	for _, p := range ps {
		tab := newGeoTable(p)
		lnQ := math.Log(1 - p)
		checked := 0
		for j := 1; j <= geoTableLen+1; j++ {
			// The threshold itself, where only the closed form may answer,
			// and both edges of its guard band, where the table answers.
			q := math.Exp(float64(j) * lnQ)
			for _, v := range []float64{q, q * (1 - geoGuard), q * (1 + geoGuard)} {
				lo, hi := 1-v, 1-v
				for k := 0; k < 2000; k++ {
					lo, hi = math.Nextafter(lo, -1), math.Nextafter(hi, 2)
				}
				for u := math.Max(lo, 0); u <= hi && u < 1; u = math.Nextafter(u, 2) {
					if got, want := tab.draw(u), closedForm(u, p); got != want {
						t.Fatalf("p=%v threshold %d u=%v: table %d, closed form %d", p, j, u, got, want)
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatalf("p=%v: sweep checked nothing", p)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	p := profiles["gcc"]
	a := NewGenerator(p, 1, 0)
	b := NewGenerator(p, 2, 0)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same == 1000 {
		t.Error("different seeds must produce different streams")
	}
}

func TestGeneratorMixMatchesProfile(t *testing.T) {
	p := profiles["swim"]
	g := NewGenerator(p, 7, 0)
	n := 200000
	counts := map[isa.OpClass]int{}
	for i := 0; i < n; i++ {
		counts[g.Next().Op]++
	}
	check := func(op isa.OpClass, want float64) {
		got := float64(counts[op]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%s fraction = %.4f, want %.4f±0.01", op, got, want)
		}
	}
	check(isa.Load, p.LoadFrac)
	check(isa.Store, p.StoreFrac)
	check(isa.Branch, p.BranchFrac)
	check(isa.FPAdd, p.FPAddFrac)
	check(isa.FPMul, p.FPMulFrac)
}

func TestGeneratorWellFormedInstructions(t *testing.T) {
	p := profiles["comp"]
	g := NewGenerator(p, 3, 1<<32)
	for i := 0; i < 50000; i++ {
		in := g.Next()
		switch in.Op {
		case isa.Load:
			if !in.Dest.Valid() || !in.Src[0].Valid() || in.Src[1].Valid() {
				t.Fatalf("malformed load: %v", in)
			}
			if in.Addr < 1<<32 {
				t.Fatalf("load address %#x outside thread base", in.Addr)
			}
		case isa.Store:
			if in.Dest.Valid() || !in.Src[0].Valid() || !in.Src[1].Valid() {
				t.Fatalf("malformed store: %v", in)
			}
		case isa.Branch:
			if in.Dest.Valid() || !in.Src[0].Valid() {
				t.Fatalf("malformed branch: %v", in)
			}
		case isa.Nop:
		default:
			if !in.Dest.Valid() || !in.Src[0].Valid() {
				t.Fatalf("malformed arith: %v", in)
			}
		}
		for _, s := range in.Src {
			if s != isa.RegInvalid && !s.Valid() {
				t.Fatalf("invalid source register %d", s)
			}
		}
	}
}

func TestGeneratorAddressesWithinRegions(t *testing.T) {
	p := profiles["turb3d"] // exercises all four regions
	g := NewGenerator(p, 11, 0)
	inRegion := func(a, base, size uint64) bool { return a >= base && a < base+size }
	for i := 0; i < 50000; i++ {
		in := g.Next()
		if !in.Op.IsMem() {
			continue
		}
		ok := inRegion(in.Addr, hotBase, p.HotBytes) ||
			inRegion(in.Addr, midBase, p.MidBytes) ||
			inRegion(in.Addr, streamBase, p.StreamBytes) ||
			inRegion(in.Addr, pageWalkBase, p.PageWalkSpan)
		if !ok {
			t.Fatalf("address %#x outside every region", in.Addr)
		}
	}
}

func TestGlobalRegsNeverWritten(t *testing.T) {
	g := NewGenerator(profiles["gcc"], 5, 0)
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.Dest.Valid() && in.Dest < isa.NumGlobalRegs {
			t.Fatalf("generator wrote global register %d", in.Dest)
		}
	}
}

func TestDependencyDistancesRespectRing(t *testing.T) {
	// Every source must reference either a global register or a register
	// written within the last ringSize register-writing instructions.
	g := NewGenerator(profiles["apsi"], 9, 0)
	lastWriter := map[isa.Reg]int{}
	writes := 0
	for i := 0; i < 100000; i++ {
		in := g.Next()
		for _, s := range in.Src {
			if !s.Valid() || s < isa.NumGlobalRegs {
				continue
			}
			w, ok := lastWriter[s]
			if !ok {
				continue // start-up: register not yet written
			}
			if writes-w > ringSize {
				t.Fatalf("source %d references a stale producer (%d writes ago)", s, writes-w)
			}
		}
		if in.Dest.Valid() {
			writes++
			lastWriter[in.Dest] = writes
		}
	}
}

func TestBranchSitePredictability(t *testing.T) {
	// m88 (heavily biased sites) must generate a more predictable branch
	// stream than go (many noisy sites). Use a simple agreement metric:
	// per-PC majority direction.
	rate := func(name string) float64 {
		g := NewGenerator(profiles[name], 13, 0)
		taken := map[uint64][2]int{}
		var branches []isa.Inst
		for len(branches) < 20000 {
			in := g.Next()
			if in.Op == isa.Branch {
				branches = append(branches, in)
				c := taken[in.PC]
				if in.Taken {
					c[0]++
				} else {
					c[1]++
				}
				taken[in.PC] = c
			}
		}
		agree := 0
		for _, in := range branches {
			c := taken[in.PC]
			if (in.Taken && c[0] >= c[1]) || (!in.Taken && c[1] >= c[0]) {
				agree++
			}
		}
		return float64(agree) / float64(len(branches))
	}
	m88, goRate := rate("m88"), rate("go")
	if m88 <= goRate {
		t.Errorf("m88 bias-agreement %.3f should exceed go %.3f", m88, goRate)
	}
}

func TestStreamAddressesAdvance(t *testing.T) {
	p := profiles["swim"] // 80% streaming
	g := NewGenerator(p, 17, 0)
	seen := map[uint64]int{}
	mem := 0
	for i := 0; i < 20000; i++ {
		in := g.Next()
		if in.Op.IsMem() {
			mem++
			seen[in.Addr]++
		}
	}
	// Streaming accesses rarely revisit addresses within a short window.
	repeats := 0
	for _, c := range seen {
		if c > 1 {
			repeats += c - 1
		}
	}
	if float64(repeats)/float64(mem) > 0.35 {
		t.Errorf("too many repeated addresses for a streaming profile: %d/%d", repeats, mem)
	}
}

// Property: the generator never emits more than two sources, never writes a
// global register, and keeps memory addresses inside the working set.
func TestGeneratorSafetyProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := NewGenerator(profiles["turb3d"], seed, 0)
		for i := 0; i < 2000; i++ {
			in := g.Next()
			if in.Dest.Valid() && in.Dest < isa.NumGlobalRegs {
				return false
			}
			if in.Op.IsMem() && in.Addr >= pageWalkBase+profiles["turb3d"].PageWalkSpan {
				return false
			}
			if in.NumSources() > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
