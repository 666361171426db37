// Package acache is the arrangement cache of the batch overlay: a
// byte-bounded LRU over canonical geometry digests (geom.Hash) with
// singleflight admission, so repeated operands — shared basemaps, common
// clip masks, duplicated features — pay for clipping once per distinct
// operand pair, and tile layers for canonicalization once per distinct
// layer, instead of once per occurrence.
//
// Two tiers share one LRU budget:
//
//   - the clip tier memoizes whole clip results, keyed by (digest A,
//     digest B, engine name, op, rule) — sound because equal digests mean
//     equal operands and every engine is deterministic;
//   - the prepare tier memoizes one layer's canonical form
//     (prepared.Canonicalize), keyed by (digest, rule), for the tile
//     pyramid driver.
//
// Values are immutable once inserted (the pipeline never mutates polygons
// it was handed), so cached polygons are shared across goroutines without
// copying; the -race batteries pin that.
package acache

import (
	"container/list"
	"sync"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// value kinds, part of the cache key so the tiers cannot collide.
const (
	kindClip = iota + 1
	kindPrepare
)

// Key identifies one cached computation.
type Key struct {
	A, B geom.Digest
	Eng  uint64 // engine-name hash, 0 for the prepare tier
	Op   uint8
	Rule uint8
	Kind uint8
}

// entry is one cache slot. Until the leader finishes, ready is non-nil and
// the entry is absent from the LRU list (in-flight entries cannot be
// evicted); once ready is closed and nilled, val/bytes are immutable.
type entry struct {
	key   Key
	val   []geom.Polygon
	bytes int64
	ready chan struct{} // nil once the value is usable
	elem  *list.Element // nil while in flight
}

// Cache is a byte-bounded LRU with singleflight semantics. The zero value
// is not usable; call New. A nil *Cache is a valid bypass: every operation
// computes directly and counts nothing.
type Cache struct {
	mu        sync.Mutex
	max       int64
	bytes     int64
	ll        *list.List // front = most recent; holds *entry, ready only
	m         map[Key]*entry
	hits      uint64
	misses    uint64
	waits     uint64
	bypasses  uint64
	evictions uint64
}

// New returns a cache bounded to maxBytes of polygon payload (estimated;
// map/list overhead is not charged). maxBytes <= 0 returns nil — the
// bypass cache.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{max: maxBytes, ll: list.New(), m: make(map[Key]*entry)}
}

// shared is the process-wide cache the serve layer and the public batch API
// default to. 256 MiB holds roughly a million small resolved features —
// sized for the ROADMAP's million-feature overlay on one node.
var (
	sharedOnce sync.Once
	sharedC    *Cache
)

// Shared returns the process-wide cache (256 MiB), created on first use.
func Shared() *Cache {
	sharedOnce.Do(func() { sharedC = New(256 << 20) })
	return sharedC
}

// Stats is a point-in-time counter snapshot. The JSON tags are a stable
// contract: they surface verbatim in batch Stats and /statz.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Waits     uint64 `json:"waits"`
	Bypasses  uint64 `json:"bypasses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"maxBytes"`
}

// HitRate returns hits/(hits+misses), 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Delta returns s with prev's monotonic counters subtracted — the per-run
// view batch Stats reports against the shared cache.
func (s Stats) Delta(prev Stats) Stats {
	s.Hits -= prev.Hits
	s.Misses -= prev.Misses
	s.Waits -= prev.Waits
	s.Bypasses -= prev.Bypasses
	s.Evictions -= prev.Evictions
	return s
}

// Stats snapshots the counters. Safe on a nil cache (all zeros).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Waits: c.waits,
		Bypasses: c.bypasses, Evictions: c.evictions,
		Entries: c.ll.Len(), Bytes: c.bytes, MaxBytes: c.max,
	}
}

// polyBytes estimates the retained size of a polygon: slice headers plus
// 16 bytes per vertex.
func polyBytes(p geom.Polygon) int64 {
	n := int64(24)
	for _, r := range p {
		n += 24 + int64(len(r))*16
	}
	return n
}

// do is the singleflight core: return the cached value for k, or run
// compute exactly once per concurrent cohort. A panic in compute removes
// the placeholder (waiters retry, one becoming the next leader) and
// propagates to the leader's caller.
func (c *Cache) do(k Key, compute func() []geom.Polygon) []geom.Polygon {
	if c == nil {
		return compute()
	}
	for {
		c.mu.Lock()
		e := c.m[k]
		if e == nil {
			e = &entry{key: k, ready: make(chan struct{})}
			c.m[k] = e
			c.misses++
			c.mu.Unlock()
			return c.lead(e, compute)
		}
		if e.ready == nil {
			c.hits++
			c.ll.MoveToFront(e.elem)
			val := e.val
			c.mu.Unlock()
			return val
		}
		c.waits++
		ready := e.ready
		c.mu.Unlock()
		<-ready
		// Loop: the leader either published the value (hit next pass) or
		// panicked and removed the placeholder (this waiter may lead).
	}
}

// lead runs compute for the placeholder entry e and publishes the result.
func (c *Cache) lead(e *entry, compute func() []geom.Polygon) []geom.Polygon {
	done := false
	defer func() {
		if done {
			return
		}
		// compute panicked: withdraw the placeholder so waiters retry, then
		// let the panic continue to the caller (the batch layer's per-pair
		// guard turns it into a rescue).
		c.mu.Lock()
		delete(c.m, e.key)
		c.mu.Unlock()
		close(e.ready)
	}()
	val := compute()
	done = true

	var size int64
	for _, p := range val {
		size += polyBytes(p)
	}
	if size > c.max/4 {
		// Oversized value: admitting it would evict a quarter of the cache
		// for one entry. Serve it uncached; waiters recompute.
		c.mu.Lock()
		delete(c.m, e.key)
		c.bypasses++
		c.mu.Unlock()
		close(e.ready)
		return val
	}
	c.mu.Lock()
	e.val = val
	e.bytes = size
	e.elem = c.ll.PushFront(e)
	c.bytes += size
	ready := e.ready
	e.ready = nil
	for c.bytes > c.max && c.ll.Len() > 0 {
		back := c.ll.Back()
		ev := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.m, ev.key)
		c.bytes -= ev.bytes
		c.evictions++
	}
	c.mu.Unlock()
	close(ready)
	return val
}

// engHash hashes an engine name for the clip-tier key (FNV-1a).
func engHash(name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	return h
}

// Prepared returns the cached canonical form of the single layer with
// digest d under rule — the output of prepared.Canonicalize — running
// compute exactly once per distinct (digest, rule). The tile pyramid driver
// funnels per-zoom and per-request preparation through this tier so a layer
// cut repeatedly (or at several zoom ranges) resolves once; the cheap index
// build still runs per Prepared. The closure indirection keeps this package
// free of an internal/prepared dependency.
func (c *Cache) Prepared(d geom.Digest, rule engine.FillRule, compute func() geom.Polygon) geom.Polygon {
	if c == nil {
		return compute()
	}
	v := c.do(Key{A: d, Rule: uint8(rule), Kind: kindPrepare},
		func() []geom.Polygon { return []geom.Polygon{compute()} })
	return v[0]
}

// Clip returns the cached result of `a op b` under (engineName, rule) for
// the digest pair, running compute exactly once per distinct key. compute
// must be deterministic for the key — true of every registered engine run
// single-threaded, which is how the batch overlay invokes them.
func (c *Cache) Clip(da, db geom.Digest, op engine.Op, rule engine.FillRule, engineName string, compute func() geom.Polygon) geom.Polygon {
	if c == nil {
		return compute()
	}
	v := c.do(Key{
		A: da, B: db,
		Eng:  engHash(engineName),
		Op:   uint8(op),
		Rule: uint8(rule),
		Kind: kindClip,
	}, func() []geom.Polygon { return []geom.Polygon{compute()} })
	return v[0]
}
