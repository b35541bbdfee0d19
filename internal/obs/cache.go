package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"

	"ptperf/internal/testbed"
)

// This file is the content-addressed world-result cache. A cell's cache
// key digests everything its result is a function of: the cell key, the
// fully-defaulted testbed.Options (scenario and fault specs included —
// they are plain value trees, so encoding/json renders them
// canonically), a campaign-spec string naming the harness knobs the
// cell's measurement reads (sites, repeats, method list, sampling
// interval, ...), and the code version. Equal digest ⇒ byte-identical
// result, because worlds are deterministic functions of exactly those
// inputs — the determinism tests are what make this cache sound.
//
// Entries are JSON files named <digest>.json under the cache directory,
// written atomically (temp file + rename) so a killed run never leaves
// a torn entry. The value is the cell's result re-encoded as JSON; the
// harness registers a decoder per cell kind and the determinism
// contract plus Go's canonical float formatting guarantee a decoded
// value renders byte-identically to a computed one.

// CacheVersion invalidates every cache entry when the measurement
// semantics change. It is combined with the module's VCS revision when
// the binary carries one; bump it when making changes that alter
// results without a revision change being visible (e.g. `go test` in a
// dirty tree).
const CacheVersion = "ptperf-cache-v2"

// codeVersion returns the cache's code-version component.
func codeVersion() string {
	v := CacheVersion
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				v += "+" + s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				v += "+dirty"
			}
		}
	}
	return v
}

// CellDigest returns the content address of one world-cell computation:
// sha256 over the canonical JSON of (version, cell key, campaign spec,
// fully-defaulted options). opts is digested after defaulting so two
// spellings of the same world share an entry.
func CellDigest(key string, opts testbed.Options, spec string) string {
	fp := struct {
		Version string
		Key     string
		Spec    string
		Opts    testbed.Options
	}{codeVersion(), key, spec, opts.WithDefaults()}
	b, err := json.Marshal(fp)
	if err != nil {
		// Options is a plain value tree; a marshal failure is a
		// programming error in this package, not an input condition.
		panic(fmt.Sprintf("obs: cell digest marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Entry is one cached cell: the result value (as JSON) plus the metric
// timeline recorded while computing it (nil when metrics were off).
type Entry struct {
	// Key is the cell key, stored for humans inspecting the cache.
	Key string
	// Digest is the entry's content address (redundant with the file
	// name; Load cross-checks it).
	Digest string
	// Value is the cell result, JSON-encoded.
	Value json.RawMessage
	// Timeline is the cell's metric timeline, if one was recorded.
	Timeline *Timeline
}

// CacheStats counts one run's cache traffic.
type CacheStats struct {
	// Hits counts cells answered from the cache.
	Hits int
	// Misses counts lookups that found no (valid) entry.
	Misses int
	// Stores counts entries written.
	Stores int
}

// Cache is a content-addressed store of world-cell results under one
// directory. Methods are safe for concurrent use from world tasks.
type Cache struct {
	dir string

	mu    sync.Mutex
	stats CacheStats
}

// OpenCache opens (creating if needed) a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// Stats returns the traffic counters so far.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Cache) path(digest string) string {
	return filepath.Join(c.dir, digest+".json")
}

// Load fetches the entry at digest. A missing, unreadable or
// digest-mismatched entry is a miss (corrupt entries are treated as
// absent, never fatal).
func (c *Cache) Load(digest string) (*Entry, bool) {
	count := func(hit bool) {
		c.mu.Lock()
		if hit {
			c.stats.Hits++
		} else {
			c.stats.Misses++
		}
		c.mu.Unlock()
	}
	data, err := os.ReadFile(c.path(digest))
	if err != nil {
		count(false)
		return nil, false
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil || e.Digest != digest {
		count(false)
		return nil, false
	}
	count(true)
	return &e, true
}

// Store writes the entry at its digest, atomically (temp file in the
// cache directory, then rename).
func (c *Cache) Store(e *Entry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("obs: cache store %s: %w", e.Key, err)
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("obs: cache store %s: %w", e.Key, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("obs: cache store %s: %w", e.Key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("obs: cache store %s: %w", e.Key, err)
	}
	if err := os.Rename(tmp.Name(), c.path(e.Digest)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("obs: cache store %s: %w", e.Key, err)
	}
	c.mu.Lock()
	c.stats.Stores++
	c.mu.Unlock()
	return nil
}
