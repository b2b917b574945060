// Package iommu simulates the IO memory management unit: the IOTLB, the
// per-level IO page table caches (PTcache-L1/L2/L3 in the paper's
// terminology), the page-table walker, and the invalidation-queue
// interface, including its option to invalidate only the IOTLB while
// preserving the page-table caches — the hardware hook F&S uses (§3).
package iommu

// lru is a fully-associative LRU cache from uint64 keys to uint64 values.
// PTcache-L1/L2/L3 are modelled as LRU caches keyed by the IOVA prefix
// selecting a page-table page; the value is the identity of that page,
// used to detect stale (use-after-reclaim) entries.
//
// The live entries are packed into slots [0, n) of three parallel arrays.
// Every get hit and every put stamps its slot with the next tick of a
// per-cache clock, so the stamps order the entries exactly as a
// move-to-front list would, and the smallest live stamp is that list's
// tail: evicting it keeps the classic LRU order. invalidate moves the
// last live slot, stamp and all, into the hole, so a lookup only ever
// scans the n live keys.
type lru struct {
	keys, vals, stamps []uint64 // each of length cap
	n                  int      // live entries, in slots [0, n)
	clock              uint64
}

func newLRU(capacity int) *lru {
	c := new(lru)
	c.init(capacity)
	return c
}

func (c *lru) init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	buf := make([]uint64, 3*capacity)
	c.keys = buf[:capacity:capacity]
	c.vals = buf[capacity : 2*capacity : 2*capacity]
	c.stamps = buf[2*capacity:]
}

// find returns key's slot, or -1.
func (c *lru) find(key uint64) int {
	for i, k := range c.keys[:c.n] {
		if k == key {
			return i
		}
	}
	return -1
}

// touch marks slot i most recently used.
func (c *lru) touch(i int) {
	c.clock++
	c.stamps[i] = c.clock
}

// get returns the value for key and marks it most recently used.
func (c *lru) get(key uint64) (uint64, bool) {
	i := c.find(key)
	if i < 0 {
		return 0, false
	}
	c.touch(i)
	return c.vals[i], true
}

// put inserts or refreshes key, evicting the LRU entry at capacity.
func (c *lru) put(key, val uint64) {
	i := c.find(key)
	if i < 0 {
		if c.n < len(c.keys) {
			i = c.n
			c.n++
		} else {
			i = c.oldest()
		}
		c.keys[i] = key
	}
	c.vals[i] = val
	c.touch(i)
}

// oldest returns the live slot with the smallest stamp.
func (c *lru) oldest() int {
	lo := 0
	for i, s := range c.stamps[:c.n] {
		if s < c.stamps[lo] {
			lo = i
		}
	}
	return lo
}

// invalidate removes key if present, reporting whether it was present.
func (c *lru) invalidate(key uint64) bool {
	i := c.find(key)
	if i < 0 {
		return false
	}
	c.n--
	c.keys[i], c.vals[i], c.stamps[i] = c.keys[c.n], c.vals[c.n], c.stamps[c.n]
	return true
}

func (c *lru) len() int { return c.n }

// reset empties the cache in place.
func (c *lru) reset() { c.n = 0 }

// setAssoc is a set-associative cache used for the IOTLB: pageNumber keys
// map to a set by their low bits, and each set is a tiny LRU of `ways`
// entries. Conflict misses under scattered (poorly localised) IOVAs and
// their absence under F&S-contiguous IOVAs emerge from the indexing.
type setAssoc struct {
	sets []lru
}

func newSetAssoc(nsets, ways int) *setAssoc {
	if nsets < 1 {
		nsets = 1
	}
	// Round sets to a power of two for mask indexing.
	n := 1
	for n < nsets {
		n <<= 1
	}
	s := &setAssoc{sets: make([]lru, n)}
	for i := range s.sets {
		s.sets[i].init(ways)
	}
	return s
}

func (s *setAssoc) set(key uint64) *lru { return &s.sets[key&uint64(len(s.sets)-1)] }

func (s *setAssoc) get(key uint64) (uint64, bool) { return s.set(key).get(key) }
func (s *setAssoc) put(key, val uint64)           { s.set(key).put(key, val) }
func (s *setAssoc) invalidate(key uint64) bool    { return s.set(key).invalidate(key) }

func (s *setAssoc) len() int {
	n := 0
	for i := range s.sets {
		n += s.sets[i].len()
	}
	return n
}

// reset empties every set in place.
func (s *setAssoc) reset() {
	for i := range s.sets {
		s.sets[i].reset()
	}
}
