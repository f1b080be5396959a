package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/kg"
	"repro/internal/wire"
)

// lruCache is a mutex-guarded LRU over rendered response bodies. Values are
// the exact bytes previously written to a client, so a hit replays a
// byte-identical response. A nil *lruCache (caching disabled) is a valid
// receiver: Get always misses and Add is a no-op.
type lruCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	evicted *wire.Counter
}

// lruEntry tags each cached body with the relations it depends on, under a
// precise contract: a non-nil rels slice asserts the response is a function
// of the model weights (pinned by the key's fingerprint) and the *per-
// relation* data of exactly those relations — pools, counts, membership,
// (s,r) adjacency. Such entries survive a mutation batch unless one of their
// relations had a net triple change. rels == nil makes no such claim, so the
// entry is dropped on any effective mutation.
type lruEntry struct {
	key  string
	body []byte
	rels []kg.RelationID
}

// newLRUCache returns a cache holding at most capacity entries, counting
// each entry it evicts in evicted.
func newLRUCache(capacity int, evicted *wire.Counter) *lruCache {
	if capacity <= 0 {
		return nil
	}
	return &lruCache{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element, capacity),
		evicted: evicted,
	}
}

func (c *lruCache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).body, true
}

// Add caches body under key with the given relation tag (see lruEntry for
// the tag contract; nil means "invalidate on any effective mutation").
func (c *lruCache) Add(key string, body []byte, rels []kg.RelationID) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruEntry)
		e.body = body
		e.rels = rels
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, body: body, rels: rels})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
		c.evicted.Inc()
	}
}

// InvalidateRelations drops every entry a mutation batch could have staled:
// entries with a nil tag, and tagged entries whose relations intersect dirty
// (the batch's net-changed relations). It returns how many entries were
// dropped. Callers only invoke it for effective batches (dirty non-empty).
func (c *lruCache) InvalidateRelations(dirty []kg.RelationID) int {
	if c == nil {
		return 0
	}
	dirtySet := make(map[kg.RelationID]struct{}, len(dirty))
	for _, r := range dirty {
		dirtySet[r] = struct{}{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*lruEntry)
		stale := e.rels == nil
		for _, r := range e.rels {
			if _, ok := dirtySet[r]; ok {
				stale = true
				break
			}
		}
		if stale {
			c.ll.Remove(el)
			delete(c.items, e.key)
			dropped++
		}
		el = next
	}
	return dropped
}

func (c *lruCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// flightCall is one in-flight execution that concurrent duplicate requests
// wait on instead of re-running.
type flightCall struct {
	wg   sync.WaitGroup
	body []byte
	err  error
}

// flightGroup is a minimal single-flight implementation (the stdlib has none
// outside x/sync): concurrent Do calls with the same key run fn exactly once
// and all receive its result.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
	// waiting counts callers currently blocked on another caller's
	// execution; tests use it to know when every concurrent request has
	// coalesced before releasing the leader.
	waiting atomic.Int64
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flightCall)}
}

// Do runs fn once per key among concurrent callers. joined reports whether
// this caller attached to an execution started by another request — the
// single-flight dedup count is the number of joined callers.
func (g *flightGroup) Do(key string, fn func() ([]byte, error)) (body []byte, err error, joined bool) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		g.waiting.Add(1)
		c.wg.Wait()
		g.waiting.Add(-1)
		return c.body, c.err, true
	}
	c := &flightCall{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.body, c.err = fn()
	c.wg.Done()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	return c.body, c.err, false
}
