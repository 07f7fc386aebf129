// Fixture for the cfgvalidate analyzer.
package fixture

import "errors"

// Config has a Validate method, so every exported field must be referenced
// in it or carry a novalidate marker.
type Config struct {
	Width     int
	Depth     int     // want "Depth"
	Ratio     float64 // simlint:novalidate any ratio is legal
	hidden    int
	Threshold int
}

// Validate checks Width and Threshold but forgets Depth.
func (c Config) Validate() error {
	if c.Width < 1 {
		return errors.New("width")
	}
	if c.Threshold < 0 {
		return errors.New("threshold")
	}
	return nil
}

// PtrConfig exercises the pointer-receiver path.
type PtrConfig struct {
	Checked   int
	Unchecked int // want "Unchecked"
}

// Validate checks only Checked.
func (p *PtrConfig) Validate() error {
	if p.Checked == 0 {
		return errors.New("checked")
	}
	return nil
}

// Loose has no Validate method, so no field requirements apply.
type Loose struct {
	Anything int
	AtAll    string
}

// Outer's fields are embedded parts: Validate must cover every leaf they
// promote, exactly as if Outer declared it.
type Outer struct {
	Inner
	Note string // simlint:novalidate free text
}

// Inner has no Validate of its own; Outer's covers it.
type Inner struct {
	Size  int
	Speed int    // want "Inner.Speed is never referenced in (Outer).Validate"
	Tag   string // simlint:novalidate any tag is legal
}

// Validate checks Size but forgets the promoted Speed.
func (o *Outer) Validate() error {
	if o.Size < 1 {
		return errors.New("size")
	}
	return nil
}

var _ = Config{}.hidden
var _ = Loose{}

// Codec stands in for snap.Codec: the sync rule keys on a Sync method
// whose one parameter is a *Codec.
type Codec struct{}

// U64 is a codec field method.
func (c *Codec) U64(p *uint64) { _ = p }

// Counter has a Sync method, so every field, exported or not, must be
// referenced in it or carry a nosync marker.
type Counter struct {
	hits   uint64
	misses uint64 // want "field Counter.misses is never referenced in (Counter).Sync"
	Total  uint64 // want "Counter.Total"

	mask uint64 // simlint:nosync geometry
}

// Sync lists hits but forgets misses and Total.
func (k *Counter) Sync(c *Codec) { c.U64(&k.hits) }

// Shaped has a Sync of another signature, so no field requirements apply.
type Shaped struct {
	state uint64
}

// Sync takes no codec.
func (s *Shaped) Sync() {}

var _ = Counter{}.mask
var _ = Shaped{}.state

// Trailing has a Validate; a trailing marker exempts its own field only,
// never the field declared on the next line.
type Trailing struct {
	Free  int // simlint:novalidate any value is legal
	Below int // want "Trailing.Below"
}

// Validate checks nothing.
func (t Trailing) Validate() error { return nil }

// Shifted has a Sync; a trailing marker exempts its own field only.
type Shifted struct {
	geom  uint64 // simlint:nosync geometry
	state uint64 // want "Shifted.state"
}

// Sync forgets state.
func (s *Shifted) Sync(c *Codec) {}

var _ = Shifted{}.geom
var _ = Shifted{}.state
