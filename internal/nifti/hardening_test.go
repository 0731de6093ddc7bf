package nifti

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// validHeaderBytes serializes a small valid volume and returns the file
// bytes for header-corruption tests.
func validHeaderBytes(t *testing.T) []byte {
	t.Helper()
	vol := &Volume{Dim: [4]int{2, 2, 2, 2}, Pixdim: [4]float32{1, 1, 1, 1}}
	vol.Data = make([]float32, 16)
	var buf bytes.Buffer
	if err := Write(&buf, vol); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadRejectsOversizedDim(t *testing.T) {
	b := validHeaderBytes(t)
	binary.LittleEndian.PutUint16(b[42:], maxDim+1)
	_, err := Read(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "dim[1]") {
		t.Fatalf("err = %v, want dim bound violation", err)
	}
}

func TestReadRejectsAllocationOverBudget(t *testing.T) {
	b := validHeaderBytes(t)
	// Each axis within bounds, but the product blows the budget:
	// 32767^3 * 2 >> maxVoxels.
	binary.LittleEndian.PutUint16(b[42:], maxDim)
	binary.LittleEndian.PutUint16(b[44:], maxDim)
	binary.LittleEndian.PutUint16(b[46:], maxDim)
	_, err := Read(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v, want allocation budget violation", err)
	}
}

func TestReadRejectsBitpixDatatypeMismatch(t *testing.T) {
	b := validHeaderBytes(t)
	binary.LittleEndian.PutUint16(b[72:], 64) // float32 datatype, 64-bit bitpix
	_, err := Read(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "bitpix") {
		t.Fatalf("err = %v, want bitpix/datatype mismatch", err)
	}
}

func TestReadRejectsHugeVoxOffset(t *testing.T) {
	b := validHeaderBytes(t)
	binary.LittleEndian.PutUint32(b[108:], math.Float32bits(float32(maxOffsetSkip)+headerSize+4096))
	_, err := Read(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "vox_offset") {
		t.Fatalf("err = %v, want vox_offset cap violation", err)
	}
}

func TestReadToleratesNaNVoxOffset(t *testing.T) {
	b := validHeaderBytes(t)
	binary.LittleEndian.PutUint32(b[108:], math.Float32bits(float32(math.NaN())))
	vol, err := Read(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("NaN vox_offset must fall back to the default offset: %v", err)
	}
	if len(vol.Data) != 16 {
		t.Fatalf("read %d values, want 16", len(vol.Data))
	}
}
