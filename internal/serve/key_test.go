package serve

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"loosesim"
	"loosesim/internal/pipeline"
	"loosesim/internal/sample"
	"loosesim/internal/workload"
)

// keyParts maps each part of a Config to whether ConfigDigest and
// ConfigKey cover it.
var keyParts = map[string]struct{ digest, key bool }{
	"Stream":     {true, true},
	"Timing":     {true, true},
	"Functional": {true, true},
	"Run":        {false, true},
	"Host":       {false, false},
}

// TestConfigKeyCanonical pins what names a run. Config is its five parts
// and nothing else; changing any leaf of a part changes exactly the keys
// that cover that part; a window config restores its full run's
// checkpoints; and the keys of two reference configs are the bytes every
// existing cache entry and checkpoint was stored under.
func TestConfigKeyCanonical(t *testing.T) {
	ct := reflect.TypeOf(pipeline.Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if _, ok := keyParts[f.Name]; !ok || !f.Anonymous {
			t.Errorf("Config.%s is not one of its five parts: put it in one", f.Name)
		}
	}

	base := simCfg(t, "m88-comp", 1) // two threads: Threads[1] leaves too
	enc, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	// clone deep-copies base, so mutating a workload profile never
	// reaches the shared catalogue.
	clone := func() pipeline.Config {
		var c pipeline.Config
		if err := json.Unmarshal(enc, &c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	wantDigest, wantKey := keys(t, base)
	if d, k := keys(t, clone()); d != wantDigest || k != wantKey {
		t.Fatal("equal configs must hash equal")
	}

	var paths []string
	eachLeaf(reflect.ValueOf(&base).Elem(), "", func(path string, _ reflect.Value) { paths = append(paths, path) })
	if len(paths) < 50 {
		t.Fatalf("walked %d leaves, want every leaf of every part", len(paths))
	}
	sinks := []any{&jobEventSink{}, loosesim.IntervalFunc(func(loosesim.Interval) {})}
	for n, path := range paths {
		c := clone()
		i := 0
		eachLeaf(reflect.ValueOf(&c).Elem(), "", func(_ string, v reflect.Value) {
			if i == n {
				mutate(t, path, v, sinks)
			}
			i++
		})
		part := keyParts[strings.Split(path, ".")[1]]
		d, k := keys(t, c)
		if (d != wantDigest) != part.digest {
			t.Errorf("changing %s changes ConfigDigest: %v, want %v", path, d != wantDigest, part.digest)
		}
		if (k != wantKey) != part.key {
			t.Errorf("changing %s changes ConfigKey: %v, want %v", path, k != wantKey, part.key)
		}
	}

	o := sample.Options{Windows: 4, WindowInstructions: 1_000, DetailedWarmup: 500}
	if d, _ := keys(t, sample.WindowConfig(base, o)); d != wantDigest {
		t.Error("a window config's digest must equal its full run's, or its checkpoints cannot restore")
	}

	gcc, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	swim, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		cfg         pipeline.Config
		digest, key string
	}{
		{"DefaultConfig(gcc)", pipeline.DefaultConfig(gcc),
			"593ef61b090ee7c33ad109e3daeae1e5e6f3034e417e2b6c5deb2e932d7eeb42",
			"520c84ea8de52698a5cd5a3f0c1e1251f60e9375ebf84514385a4babfbbf20c8"},
		{"DRAConfigRF(swim, 5)", pipeline.DRAConfigRF(swim, 5),
			"e6d1246488d619bd3e43100aa0b8ed71228458357ce9756e80927b3646ff3ddf",
			"b15d54620c4836e589642411559eaf0ab78fdc2cea80fee4a92dcd6650c2ee73"},
	} {
		if d, k := keys(t, c.cfg); d != c.digest || k != c.key {
			t.Errorf("%s: digest %s key %s, want %s and %s: every checkpoint and cache entry would go stale",
				c.name, d, k, c.digest, c.key)
		}
	}
}

func keys(t *testing.T, cfg pipeline.Config) (digest, key string) {
	t.Helper()
	digest, err := pipeline.ConfigDigest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, err = ConfigKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return digest, key
}

// eachLeaf calls f on every exported leaf under v, depth first: struct
// fields and slice elements are walked into, everything else is a leaf.
func eachLeaf(v reflect.Value, path string, f func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if sf := v.Type().Field(i); sf.IsExported() {
				eachLeaf(v.Field(i), path+"."+sf.Name, f)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			eachLeaf(v.Index(i), fmt.Sprintf("%s[%d]", path, i), f)
		}
	default:
		f(path, v)
	}
}

// mutate gives a leaf a different value: a nil pointer or interface gets
// one of sinks that fits it.
func mutate(t *testing.T, path string, v reflect.Value, sinks []any) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Interface:
		for _, s := range sinks {
			if sv := reflect.ValueOf(s); sv.Type().Implements(v.Type()) {
				v.Set(sv)
				return
			}
		}
		t.Fatalf("%s: no test value implements %s", path, v.Type())
	default:
		t.Fatalf("%s: cannot mutate a %s leaf", path, v.Kind())
	}
}
