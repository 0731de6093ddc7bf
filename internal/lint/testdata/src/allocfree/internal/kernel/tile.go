package kernel

// tile is implemented in assembly: the declaration has no body for an
// analyzer to walk, and //go:noescape promises the compiler its pointer
// argument stays off the heap. Marking it hot is legal and finds nothing.
//
//lint:hotpath assembly register tile
//go:noescape
func tile(c *float32, n int)

// Band drives the assembly tile from a hot function: taking an element's
// address and calling a body-less function are not allocations.
//
//lint:hotpath one call per row band
func Band(c []float32) {
	for i := 0; i+8 <= len(c); i += 8 {
		tile(&c[i], 8)
	}
}
