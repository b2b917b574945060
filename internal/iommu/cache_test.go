package iommu

import (
	"testing"
	"testing/quick"
)

func TestLRUBasics(t *testing.T) {
	c := newLRU(2)
	c.put(1, 10)
	c.put(2, 20)
	if v, ok := c.get(1); !ok || v != 10 {
		t.Fatalf("get(1) = %d,%v", v, ok)
	}
	// 2 is now LRU; inserting 3 evicts it.
	c.put(3, 30)
	if _, ok := c.get(2); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.get(1); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.get(3); !ok {
		t.Fatal("new entry missing")
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := newLRU(2)
	c.put(1, 10)
	c.put(1, 11)
	if v, _ := c.get(1); v != 11 {
		t.Fatalf("value not updated: %d", v)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
}

func TestLRUInvalidate(t *testing.T) {
	c := newLRU(4)
	c.put(1, 10)
	if !c.invalidate(1) {
		t.Fatal("invalidate of present key returned false")
	}
	if c.invalidate(1) {
		t.Fatal("invalidate of absent key returned true")
	}
	if _, ok := c.get(1); ok {
		t.Fatal("invalidated key still present")
	}
}

func TestLRUInvalidateMiddleAndTail(t *testing.T) {
	c := newLRU(4)
	for k := uint64(1); k <= 4; k++ {
		c.put(k, k)
	}
	c.invalidate(2) // middle
	c.invalidate(1) // tail (LRU)
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	c.put(5, 5)
	c.put(6, 6)
	// 3 was LRU among survivors; adding two entries must evict nothing
	// until capacity, then 3 first.
	c.put(7, 7)
	if _, ok := c.get(3); ok {
		t.Fatal("expected 3 evicted first")
	}
}

func TestLRUCapacityOne(t *testing.T) {
	c := newLRU(1)
	c.put(1, 1)
	c.put(2, 2)
	if _, ok := c.get(1); ok {
		t.Fatal("capacity-1 cache kept two entries")
	}
	if v, ok := c.get(2); !ok || v != 2 {
		t.Fatal("latest entry missing")
	}
}

func TestLRUZeroCapacityClamped(t *testing.T) {
	c := newLRU(0)
	c.put(1, 1)
	if _, ok := c.get(1); !ok {
		t.Fatal("clamped capacity should hold one entry")
	}
}

// Property: an LRU of capacity k, fed any access stream, never exceeds k
// entries and always contains the k most recently used distinct keys.
func TestPropertyLRUContents(t *testing.T) {
	const k = 4
	f := func(stream []uint8) bool {
		c := newLRU(k)
		var recent []uint64 // distinct keys, most recent first
		touch := func(key uint64) {
			for i, r := range recent {
				if r == key {
					recent = append(recent[:i], recent[i+1:]...)
					break
				}
			}
			recent = append([]uint64{key}, recent...)
		}
		for _, b := range stream {
			key := uint64(b % 10)
			if b%2 == 0 {
				c.put(key, key)
				touch(key)
			} else if _, ok := c.get(key); ok {
				touch(key)
			}
			if c.len() > k {
				return false
			}
		}
		// The min(k, len(recent)) most recent put/get-hit keys must be in
		// the cache.
		n := k
		if len(recent) < n {
			n = len(recent)
		}
		for _, key := range recent[:n] {
			if _, ok := c.get(key); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSetAssocDistributesSets(t *testing.T) {
	s := newSetAssoc(4, 1)
	// Keys 0..3 land in distinct sets: no evictions despite ways=1.
	for k := uint64(0); k < 4; k++ {
		s.put(k, k)
	}
	for k := uint64(0); k < 4; k++ {
		if _, ok := s.get(k); !ok {
			t.Fatalf("key %d missing (should be in its own set)", k)
		}
	}
}

func TestSetAssocConflictMiss(t *testing.T) {
	s := newSetAssoc(4, 1)
	// Keys 0 and 4 share set 0 with 1 way: second insert evicts first.
	s.put(0, 0)
	s.put(4, 4)
	if _, ok := s.get(0); ok {
		t.Fatal("conflicting key survived in 1-way set")
	}
	if _, ok := s.get(4); !ok {
		t.Fatal("newest key missing")
	}
}

func TestSetAssocRoundsToPowerOfTwo(t *testing.T) {
	s := newSetAssoc(5, 2) // rounds to 8 sets
	if len(s.sets) != 8 {
		t.Fatalf("sets = %d, want 8", len(s.sets))
	}
}

func TestSetAssocInvalidateAndLen(t *testing.T) {
	s := newSetAssoc(4, 2)
	s.put(1, 1)
	s.put(2, 2)
	if s.len() != 2 {
		t.Fatalf("len = %d, want 2", s.len())
	}
	if !s.invalidate(1) {
		t.Fatal("invalidate failed")
	}
	if s.len() != 1 {
		t.Fatalf("len = %d, want 1", s.len())
	}
}

// TestLRUReusesNodesAtCapacity pins the PTcache model's steady-state
// cost: evicting puts and invalidate/put cycles at capacity reuse the
// fixed slot arrays instead of allocating.
func TestLRUReusesNodesAtCapacity(t *testing.T) {
	c := newLRU(4)
	for k := uint64(0); k < 4; k++ {
		c.put(k, k)
	}
	next := uint64(4)
	allocs := testing.AllocsPerRun(1000, func() {
		c.put(next, next) // evicts the LRU entry
		c.invalidate(next)
		c.put(next+1, next) // refills the freed slot
		next += 2
	})
	if allocs != 0 {
		t.Fatalf("put/invalidate cycle allocates %.2f times, want 0", allocs)
	}
	if c.len() != 4 {
		t.Fatalf("len() = %d, want 4", c.len())
	}
}

// mtf is the reference model for one LRU: a move-to-front list of
// entries, most recently used first.
type mtf struct {
	cap     int
	entries []mtfEntry
}

type mtfEntry struct{ key, val uint64 }

func (l *mtf) find(key uint64) int {
	for i, e := range l.entries {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (l *mtf) toFront(i int) {
	e := l.entries[i]
	copy(l.entries[1:i+1], l.entries[:i])
	l.entries[0] = e
}

func (l *mtf) get(key uint64) (uint64, bool) {
	i := l.find(key)
	if i < 0 {
		return 0, false
	}
	l.toFront(i)
	return l.entries[0].val, true
}

func (l *mtf) put(key, val uint64) {
	if i := l.find(key); i >= 0 {
		l.entries[i].val = val
		l.toFront(i)
		return
	}
	if len(l.entries) == l.cap {
		l.entries = l.entries[:len(l.entries)-1]
	}
	l.entries = append(l.entries, mtfEntry{})
	l.toFront(len(l.entries) - 1)
	l.entries[0] = mtfEntry{key, val}
}

func (l *mtf) invalidate(key uint64) bool {
	i := l.find(key)
	if i < 0 {
		return false
	}
	l.entries = append(l.entries[:i], l.entries[i+1:]...)
	return true
}

// sameContents reports whether c holds exactly the model's entries,
// reading the slots directly so the check does not touch recency.
func sameContents(c *lru, l *mtf) bool {
	if c.len() != len(l.entries) {
		return false
	}
	for i, k := range c.keys[:c.n] {
		j := l.find(k)
		if j < 0 || l.entries[j].val != c.vals[i] {
			return false
		}
	}
	return true
}

// lruCaps are the capacities the differential fuzzer drives: every small
// size plus the PTcache default.
var lruCaps = []int{1, 2, 3, 4, 5, 6, 7, 8, 32}

// FuzzLRUDifferential drives random put/get/invalidate sequences through
// lru and setAssoc and checks every operation against a move-to-front
// list: return values, len() and the exact live contents.
//
// Input layout: data[0] picks the cache (an lru of capacity
// lruCaps[data[0]%10], or a setAssoc when data[0]%10 == 9, sized by
// data[1]); the rest is (op, key) byte pairs.
func FuzzLRUDifferential(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 2, 1, 1, 0, 1, 1, 3, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		// cache is the structure under test; sets are its LRUs in
		// setAssoc.set order, each with its model.
		var (
			cache interface {
				get(uint64) (uint64, bool)
				put(uint64, uint64)
				invalidate(uint64) bool
				len() int
			}
			sets   []*lru
			models []*mtf
			keys   uint64
		)
		if sel := int(data[0] % 10); sel < len(lruCaps) {
			c := newLRU(lruCaps[sel])
			cache, sets = c, []*lru{c}
			models = []*mtf{{cap: lruCaps[sel]}}
			keys = uint64(2*lruCaps[sel] + 1)
		} else {
			ways := 1 + int(data[1]>>3&3)
			s := newSetAssoc(1+int(data[1]&7), ways)
			cache = s
			for i := range s.sets {
				sets = append(sets, &s.sets[i])
				models = append(models, &mtf{cap: ways})
			}
			keys = uint64(2*ways*len(s.sets) + 1)
		}
		live := 0
		ops := data[2:]
		for n := 0; n+1 < len(ops); n += 2 {
			op, key := ops[n], uint64(ops[n+1])%keys
			set := key & uint64(len(sets)-1)
			c, l := sets[set], models[set]
			live -= len(l.entries)
			switch op % 3 {
			case 0:
				gv, gok := cache.get(key)
				wv, wok := l.get(key)
				if gv != wv || gok != wok {
					t.Fatalf("op %d get(%d) = %d,%v, model %d,%v", n/2, key, gv, gok, wv, wok)
				}
			case 1:
				val := uint64(n)<<8 | uint64(op)
				cache.put(key, val)
				l.put(key, val)
			case 2:
				if got, want := cache.invalidate(key), l.invalidate(key); got != want {
					t.Fatalf("op %d invalidate(%d) = %v, model %v", n/2, key, got, want)
				}
			}
			live += len(l.entries)
			if !sameContents(c, l) {
				t.Fatalf("op %d (%d on key %d): set %d holds %v (len %d), model %v",
					n/2, op%3, key, set, c.keys[:c.n], c.len(), l.entries)
			}
			if cache.len() != live {
				t.Fatalf("op %d: len() = %d, model %d", n/2, cache.len(), live)
			}
		}
	})
}
