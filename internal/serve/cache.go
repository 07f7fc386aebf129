package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"loosesim"
	"loosesim/internal/pipeline"
)

// ConfigKey returns the content address of a simulation: a sha256 over the
// JSON of a Config holding cfg's Stream, Timing, Functional and Run parts
// (ConfigDigest's parts plus the run lengths). The Host part is left out
// because it cannot change a completed run's Result: probes are passive by
// contract, and a budget only decides whether a run finishes, never what
// it computes. Canonicality comes from encoding/json itself: struct fields
// encode in declaration order with no map in the Config tree, so equal
// parts produce byte-equal JSON, and two Configs hash equal exactly when
// they would produce identical Results.
func ConfigKey(cfg pipeline.Config) (string, error) {
	cfg = pipeline.Config{Stream: cfg.Stream, Timing: cfg.Timing, Functional: cfg.Functional, Run: cfg.Run}
	b, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("serve: hashing config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Store is a content-addressed result cache. An entry is a Result's
// encoding (encodeResult), stored and handed out as bytes: a cache hit
// is served by splicing those bytes into the response, and only a caller
// that needs a *Result decodes them. Entries are immutable — Put takes
// ownership of the slice it is given and Get's callers must not modify
// what it returns. Implementations must be safe for concurrent use.
type Store interface {
	// Get returns the encoding stored under key, if any.
	Get(key string) ([]byte, bool, error)
	// Put stores enc, a Result's encoding, under key, overwriting any
	// previous entry.
	Put(key string, enc []byte) error
}

// encodeResult and decodeResult fix the cache's wire format: plain JSON,
// with Result's histogram carrying its own marshaller (stats.Histogram).
func encodeResult(res *pipeline.Result) ([]byte, error) {
	return json.Marshal(res)
}

func decodeResult(b []byte) (*pipeline.Result, error) {
	res := &pipeline.Result{}
	if err := json.Unmarshal(b, res); err != nil {
		return nil, err
	}
	return res, nil
}

// MemStore is an in-process Store: a map from key to encoding. Get hands
// out the stored slice itself, so a hit costs a map lookup and no copy;
// a caller that wants a Result decodes its own, so none can alias (and
// then mutate) another's.
type MemStore struct {
	mu sync.Mutex // a leaf lock (see Server.mu)
	m  map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string][]byte)}
}

// Get implements Store.
func (s *MemStore) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	b, ok := s.m[key]
	s.mu.Unlock()
	return b, ok, nil
}

// Put implements Store.
func (s *MemStore) Put(key string, enc []byte) error {
	s.mu.Lock()
	s.m[key] = enc
	s.mu.Unlock()
	return nil
}

// Len returns the number of cached entries.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// DirStore persists results as one JSON file per key in a directory, so a
// cache survives restarts and is shared between loosimd and
// `loosweep -cache` pointing at the same path.
type DirStore struct {
	dir string
}

// NewDirStore opens (creating if needed) a directory-backed store.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// path maps a key to its file, refusing keys that are not lowercase hex —
// every ConfigKey is, and anything else could escape the directory.
func (s *DirStore) path(key string) (string, error) {
	if key == "" {
		return "", errors.New("serve: empty cache key")
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return "", fmt.Errorf("serve: malformed cache key %q", key)
		}
	}
	return filepath.Join(s.dir, key+".json"), nil
}

// Get implements Store. The entry is decoded before it is returned, so
// a torn or corrupted file is an error (which RunAllCached treats as a
// miss) rather than bytes served to a client.
func (s *DirStore) Get(key string) ([]byte, bool, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, false, err
	}
	b, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	if _, err := decodeResult(b); err != nil {
		return nil, false, fmt.Errorf("serve: corrupt cache entry %s: %w", key, err)
	}
	return b, true, nil
}

// Put implements Store. The entry is written to a temporary file and
// renamed into place, so concurrent readers never observe a torn write.
func (s *DirStore) Put(key string, enc []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(s.dir, key+".tmp-")
	if err != nil {
		return err
	}
	if _, err := f.Write(enc); err != nil {
		_ = f.Close()
		_ = os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), p); err != nil {
		_ = os.Remove(f.Name())
		return err
	}
	return nil
}

// CacheStats counts cache traffic; all methods are safe for concurrent
// use.
type CacheStats struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	putErrors atomic.Uint64
}

// Hits returns the number of lookups served from the store.
func (c *CacheStats) Hits() uint64 { return c.hits.Load() }

// Misses returns the number of lookups that had to simulate.
func (c *CacheStats) Misses() uint64 { return c.misses.Load() }

// PutErrors returns the number of failed write-backs.
func (c *CacheStats) PutErrors() uint64 { return c.putErrors.Load() }

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (c *CacheStats) HitRate() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// RunAllCached is loosesim.RunAllContext behind a content-addressed cache:
// hits are decoded from the store, misses run on the bounded worker pool
// and are written back, and results return in input order. Identical
// configs within one batch are coalesced into a single simulation. A store
// read or decode error is treated as a miss; a write-back error (encode or
// Put) is counted (cs, when non-nil, is updated throughout) but does not
// fail the batch — the results are still correct, merely uncached. A nil
// store degrades to loosesim.RunAllContext.
func RunAllCached(ctx context.Context, store Store, cs *CacheStats, cfgs []pipeline.Config) ([]*pipeline.Result, error) {
	if store == nil {
		return loosesim.RunAllContext(ctx, cfgs)
	}
	results := make([]*pipeline.Result, len(cfgs))
	keys := make([]string, len(cfgs))
	var missIdx []int
	firstMiss := make(map[string]int) // key -> index of the batch entry that will simulate it
	var dupIdx []int
	for i := range cfgs {
		key, err := ConfigKey(cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		keys[i] = key
		if enc, ok, _ := store.Get(key); ok {
			if res, err := decodeResult(enc); err == nil {
				if cs != nil {
					cs.hits.Add(1)
				}
				results[i] = res
				continue
			}
		}
		if _, ok := firstMiss[key]; ok {
			if cs != nil {
				cs.hits.Add(1) // coalesced: served without its own simulation
			}
			dupIdx = append(dupIdx, i)
			continue
		}
		if cs != nil {
			cs.misses.Add(1)
		}
		firstMiss[key] = i
		missIdx = append(missIdx, i)
	}
	if len(missIdx) == 0 && len(dupIdx) == 0 {
		return results, nil
	}
	miss := make([]pipeline.Config, len(missIdx))
	for j, i := range missIdx {
		miss[j] = cfgs[i]
	}
	ran, err := loosesim.RunAllContext(ctx, miss)
	if err != nil {
		return nil, err
	}
	for j, i := range missIdx {
		results[i] = ran[j]
		enc, err := encodeResult(ran[j])
		if err == nil {
			err = store.Put(keys[i], enc)
		}
		if err != nil && cs != nil {
			cs.putErrors.Add(1)
		}
	}
	for _, i := range dupIdx {
		results[i] = results[firstMiss[keys[i]]]
	}
	return results, nil
}
