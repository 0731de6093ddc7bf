package nifti

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomVolume(rng *rand.Rand, nx, ny, nz, nt int) *Volume {
	v := &Volume{
		Dim:    [4]int{nx, ny, nz, nt},
		Pixdim: [4]float32{3, 3, 3, 1.5},
		Data:   make([]float32, nx*ny*nz*nt),
	}
	for i := range v.Data {
		v.Data[i] = rng.Float32()*2 - 1
	}
	return v
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vol := randomVolume(rng, 4, 5, 3, 7)
	var buf bytes.Buffer
	if err := Write(&buf, vol); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != vol.Dim {
		t.Fatalf("dims %v vs %v", got.Dim, vol.Dim)
	}
	if got.Pixdim[3] != 1.5 {
		t.Fatalf("TR = %v", got.Pixdim[3])
	}
	for i := range vol.Data {
		if got.Data[i] != vol.Data[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vol := randomVolume(rng, 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(5))
		var buf bytes.Buffer
		if err := Write(&buf, vol); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || got.Dim != vol.Dim {
			return false
		}
		for i := range vol.Data {
			if got.Data[i] != vol.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// buildNIfTI constructs a header+data blob by hand in the given byte order
// and datatype.
func buildNIfTI(order binary.ByteOrder, datatype int, dims [4]int, slope, inter float32, raw []byte) []byte {
	hdr := make([]byte, 352)
	order.PutUint32(hdr[0:], 348)
	ndim := 4
	order.PutUint16(hdr[40:], uint16(ndim))
	for i := 0; i < 4; i++ {
		order.PutUint16(hdr[40+2*(i+1):], uint16(dims[i]))
		order.PutUint32(hdr[76+4*(i+1):], math.Float32bits(1))
	}
	order.PutUint16(hdr[70:], uint16(datatype))
	order.PutUint32(hdr[108:], math.Float32bits(352))
	order.PutUint32(hdr[112:], math.Float32bits(slope))
	order.PutUint32(hdr[116:], math.Float32bits(inter))
	copy(hdr[344:], "n+1\x00")
	return append(hdr, raw...)
}

func TestReadBigEndian(t *testing.T) {
	be := binary.BigEndian
	raw := make([]byte, 2*4)
	be.PutUint32(raw[0:], math.Float32bits(1.25))
	be.PutUint32(raw[4:], math.Float32bits(-2.5))
	blob := buildNIfTI(be, dtFloat32, [4]int{2, 1, 1, 1}, 1, 0, raw)
	vol, err := Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if vol.Data[0] != 1.25 || vol.Data[1] != -2.5 {
		t.Fatalf("data = %v", vol.Data)
	}
}

func TestReadInt16WithScaling(t *testing.T) {
	le := binary.LittleEndian
	raw := make([]byte, 3*2)
	v0, v1, v2 := int16(100), int16(-50), int16(0)
	le.PutUint16(raw[0:], uint16(v0))
	le.PutUint16(raw[2:], uint16(v1))
	le.PutUint16(raw[4:], uint16(v2))
	blob := buildNIfTI(le, dtInt16, [4]int{3, 1, 1, 1}, 0.5, 10, raw)
	vol, err := Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{60, -15, 10}
	for i, w := range want {
		if vol.Data[i] != w {
			t.Fatalf("scaled[%d] = %v, want %v", i, vol.Data[i], w)
		}
	}
}

func TestReadUint8AndFloat64(t *testing.T) {
	le := binary.LittleEndian
	blob := buildNIfTI(le, dtUint8, [4]int{2, 1, 1, 1}, 1, 0, []byte{7, 255})
	vol, err := Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if vol.Data[0] != 7 || vol.Data[1] != 255 {
		t.Fatalf("uint8 data = %v", vol.Data)
	}
	raw := make([]byte, 8)
	le.PutUint64(raw, math.Float64bits(3.5))
	blob = buildNIfTI(le, dtFloat64, [4]int{1, 1, 1, 1}, 1, 0, raw)
	vol, err = Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if vol.Data[0] != 3.5 {
		t.Fatalf("float64 data = %v", vol.Data)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 100),
		func() []byte { // wrong magic
			b := buildNIfTI(binary.LittleEndian, dtFloat32, [4]int{1, 1, 1, 1}, 1, 0, make([]byte, 4))
			copy(b[344:], "XXXX")
			return b
		}(),
		func() []byte { // bad sizeof_hdr
			b := buildNIfTI(binary.LittleEndian, dtFloat32, [4]int{1, 1, 1, 1}, 1, 0, make([]byte, 4))
			b[0] = 99
			return b
		}(),
		func() []byte { // unsupported datatype (complex = 32)
			return buildNIfTI(binary.LittleEndian, 32, [4]int{1, 1, 1, 1}, 1, 0, make([]byte, 8))
		}(),
		// truncated data
		buildNIfTI(binary.LittleEndian, dtFloat32, [4]int{4, 4, 4, 2}, 1, 0, make([]byte, 16)),
	}
	for i, blob := range cases {
		if _, err := Read(bytes.NewReader(blob)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestWriteRejectsBadDims(t *testing.T) {
	vol := &Volume{Dim: [4]int{2, 2, 2, 2}, Data: make([]float32, 3)}
	if err := Write(&bytes.Buffer{}, vol); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestAtIndexing(t *testing.T) {
	vol := &Volume{Dim: [4]int{2, 3, 2, 2}, Data: make([]float32, 24)}
	vol.Data[((1*2+1)*3+2)*2+1] = 42 // t=1, z=1, y=2, x=1
	if vol.At(1, 2, 1, 1) != 42 {
		t.Fatal("At indexing broken")
	}
}
