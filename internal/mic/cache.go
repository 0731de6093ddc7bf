package mic

import "fmt"

// Cache is a set-associative cache with true-LRU replacement, simulated at
// line granularity over abstract addresses.
type Cache struct {
	lineSize int
	nSets    int
	assoc    int
	// tags[set*assoc+way] holds the line tag; lru[set*assoc+way] the
	// recency order (higher = more recent).
	tags  []uint64
	valid []bool
	lru   []uint64
	tick  uint64

	// Hits and Misses count line-granularity accesses.
	Hits, Misses uint64
}

// newCache builds a cache of the given total size, associativity and line
// size. Size must be a multiple of assoc*lineSize.
func newCache(size, assoc, lineSize int) *Cache {
	if size <= 0 || assoc <= 0 || lineSize <= 0 {
		panic(fmt.Sprintf("mic: invalid cache geometry size=%d assoc=%d line=%d", size, assoc, lineSize))
	}
	nSets := size / (assoc * lineSize)
	if nSets == 0 || size%(assoc*lineSize) != 0 {
		panic(fmt.Sprintf("mic: cache size %d not divisible into %d-way sets of %dB lines", size, assoc, lineSize))
	}
	return &Cache{
		lineSize: lineSize,
		nSets:    nSets,
		assoc:    assoc,
		tags:     make([]uint64, nSets*assoc),
		valid:    make([]bool, nSets*assoc),
		lru:      make([]uint64, nSets*assoc),
	}
}

// Access touches the line containing addr and reports whether it hit.
// On a miss the line is installed, evicting the LRU way.
func (c *Cache) Access(addr uint64) bool {
	line := addr / uint64(c.lineSize)
	set := int(line % uint64(c.nSets))
	tag := line / uint64(c.nSets)
	base := set * c.assoc
	c.tick++
	victim := base
	var victimLRU uint64 = ^uint64(0)
	for w := base; w < base+c.assoc; w++ {
		if c.valid[w] && c.tags[w] == tag {
			c.lru[w] = c.tick
			c.Hits++
			return true
		}
		if !c.valid[w] {
			victim = w
			victimLRU = 0
		} else if c.lru[w] < victimLRU {
			victim = w
			victimLRU = c.lru[w]
		}
	}
	c.Misses++
	c.tags[victim] = tag
	c.valid[victim] = true
	c.lru[victim] = c.tick
	return false
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.lru[i] = 0
	}
	c.tick = 0
	c.Hits = 0
	c.Misses = 0
}
