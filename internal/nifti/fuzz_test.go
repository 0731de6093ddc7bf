package nifti

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzNIfTIRead drives the NIfTI-1 parser with arbitrary bytes. Read
// must never panic and never trust a header size it has not bounded:
// any accepted volume must satisfy the dim/data-length invariant.
func FuzzNIfTIRead(f *testing.F) {
	// Seed 1: a valid little-endian float32 volume produced by Write.
	vol := &Volume{Dim: [4]int{3, 2, 2, 2}, Pixdim: [4]float32{1, 1, 1, 1.5}}
	vol.Data = make([]float32, 3*2*2*2)
	for i := range vol.Data {
		vol.Data[i] = float32(i)
	}
	var valid bytes.Buffer
	if err := Write(&valid, vol); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// Seed 2: the same file truncated inside the data section.
	f.Add(valid.Bytes()[:headerSize+20])
	// Seed 3: header only.
	f.Add(valid.Bytes()[:headerSize])
	// Seed 4: empty input.
	f.Add([]byte{})
	// Seed 5: huge declared dimensions (the allocation-budget path).
	huge := append([]byte(nil), valid.Bytes()[:headerSize]...)
	binary.LittleEndian.PutUint16(huge[42:], 0x7fff)
	binary.LittleEndian.PutUint16(huge[44:], 0x7fff)
	binary.LittleEndian.PutUint16(huge[46:], 0x7fff)
	f.Add(huge)
	// Seed 6: bitpix contradicting datatype.
	bad := append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint16(bad[72:], 64)
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := v.Dim[0] * v.Dim[1] * v.Dim[2] * v.Dim[3]
		if len(v.Data) != n {
			t.Fatalf("accepted volume with %d values for dims %v (want %d)", len(v.Data), v.Dim, n)
		}
		for i, d := range v.Dim {
			if d < 1 || d > maxDim {
				t.Fatalf("accepted dim[%d] = %d outside [1, %d]", i, d, maxDim)
			}
		}
		if n > maxVoxels {
			t.Fatalf("accepted %d voxels over budget %d", n, maxVoxels)
		}
	})
}
