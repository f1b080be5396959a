package kge

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"syscall"
	"unsafe"

	"repro/internal/fsio"
)

// The flat checkpoint format is the mmap-able sibling of the gob snapshot:
// the same canonical name-sorted parameter records, but laid out so a loader
// never decodes anything — it maps the file and points each parameter table
// at the raw pages. Layout (all integers little-endian):
//
//	magic    "KGEFLAT1" (8 bytes)
//	u32      format version (currently 1)
//	u32      headerSize: total header bytes, magic through header CRC
//	u32+str  model name
//	8 × u64  Config: NumEntities, NumRelations, Dim, Seed,
//	         Norm, ConvEHeight, ConvEWidth, ConvEFilters
//	         (Norm is written 0 and must read 0 or 1; see checkNorm)
//	u32      record count
//	records  (name-sorted) u32+str name, u32 rows, u32 cols,
//	         u64 data offset (64-byte aligned), u64 float32 count
//	u32      header CRC32 (IEEE) of every header byte before it
//	…zero padding to each record's aligned offset…
//	data     each record's rows×cols float32 values, raw little-endian
//	u32      file CRC32 (IEEE) of every byte before it
//
// The wire discipline mirrors the prune sidecar (internal/prune/persist.go):
// fixed magic, flat pre-sized arrays, trailing checksum so a torn write is a
// clean load error instead of silent corruption. The 64-byte record
// alignment serves two masters: unsafe float32 aliasing (which needs 4-byte
// alignment; mmap regions are page-aligned, so aligned offsets keep rows
// aligned) and cache-line-aligned sweep kernels.
const (
	flatMagic   = "KGEFLAT1"
	flatVersion = 1
	flatAlign   = 64

	// flatMaxName and flatMaxRecords bound the variable-length header
	// fields, so a corrupt length prefix cannot provoke a huge allocation.
	flatMaxName    = 1 << 10
	flatMaxRecords = 1 << 10
)

// hostLittleEndian reports whether float32 values can alias the file bytes
// directly. On a big-endian host OpenMapped falls back to a copying decode —
// correct, just without the zero-copy property.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func alignUp(n, a int) int { return (n + a - 1) / a * a }

// SaveFlat serializes a trained model to w in the flat format. Like Save it
// is a pure function of the weights: identical models always produce
// identical bytes.
func SaveFlat(m Model, w io.Writer) error {
	cfg, err := configOf(m)
	if err != nil {
		return err
	}
	params := append([]*Param(nil), m.Params().List()...)
	sort.Slice(params, func(i, j int) bool { return params[i].Name < params[j].Name })

	// Size the header, then assign each record's aligned data offset.
	hdrSize := len(flatMagic) + 4 + 4 + 4 + len(m.Name()) + 8*8 + 4
	for _, p := range params {
		hdrSize += 4 + len(p.Name) + 4 + 4 + 8 + 8
	}
	hdrSize += 4 // header CRC
	offsets := make([]int, len(params))
	off := hdrSize
	for i, p := range params {
		off = alignUp(off, flatAlign)
		offsets[i] = off
		off += 4 * len(p.M.Data)
	}

	var hdr bytes.Buffer
	hdr.Grow(hdrSize)
	hdr.WriteString(flatMagic)
	putU32(&hdr, flatVersion)
	putU32(&hdr, uint32(hdrSize))
	putU32(&hdr, uint32(len(m.Name())))
	hdr.WriteString(m.Name())
	for _, v := range []int64{
		int64(cfg.NumEntities), int64(cfg.NumRelations), int64(cfg.Dim), cfg.Seed,
		0, int64(cfg.ConvEHeight), int64(cfg.ConvEWidth), int64(cfg.ConvEFilters),
	} {
		putU64(&hdr, uint64(v))
	}
	putU32(&hdr, uint32(len(params)))
	for i, p := range params {
		putU32(&hdr, uint32(len(p.Name)))
		hdr.WriteString(p.Name)
		putU32(&hdr, uint32(p.M.Rows))
		putU32(&hdr, uint32(p.M.Cols))
		putU64(&hdr, uint64(offsets[i]))
		putU64(&hdr, uint64(len(p.M.Data)))
	}
	putU32(&hdr, crc32.ChecksumIEEE(hdr.Bytes()))
	if hdr.Len() != hdrSize {
		return fmt.Errorf("kge: flat header size miscomputed: wrote %d, sized %d", hdr.Len(), hdrSize)
	}

	cw := &flatCRCWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<20)
	if _, err := bw.Write(hdr.Bytes()); err != nil {
		return fmt.Errorf("kge: flat save: %w", err)
	}
	pos := hdrSize
	var chunk [4 * 16384]byte
	for i, p := range params {
		for pos < offsets[i] {
			bw.WriteByte(0)
			pos++
		}
		data := p.M.Data
		for len(data) > 0 {
			n := len(data)
			if n > len(chunk)/4 {
				n = len(chunk) / 4
			}
			for j, v := range data[:n] {
				binary.LittleEndian.PutUint32(chunk[4*j:], math.Float32bits(v))
			}
			if _, err := bw.Write(chunk[:4*n]); err != nil {
				return fmt.Errorf("kge: flat save: %w", err)
			}
			data = data[n:]
			pos += 4 * n
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("kge: flat save: %w", err)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.crc)
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("kge: flat save: %w", err)
	}
	return nil
}

// SaveFlatFile writes the model to path in the flat format with the full
// durable-write discipline: unique temp file, file fsync, atomic rename,
// directory fsync (internal/fsio).
func SaveFlatFile(m Model, path string) error {
	return fsio.WriteAtomic(path, func(f *os.File) error { return SaveFlat(m, f) })
}

// Mapped is a model whose parameter tables alias a memory-mapped flat
// checkpoint. The weights live in the page cache, shared with every other
// process mapping the same file, and nothing is decoded at open time.
//
// A mapped model is read-only: the pages are mapped PROT_READ, so training
// it (or anything else that writes a parameter table) faults. Scoring,
// sweeping, and fingerprinting — the serving paths — only read.
//
// Close unmaps the region. The model must not be used afterwards; callers
// that share a Mapped across goroutines (the serve registry) must refcount
// and close only after the last user is done.
//
// The embedded field keeps its Trainable name because bench/ reads it.
type Mapped struct {
	Trainable
	data []byte // the mmap region; nil after Close or on the copying fallback

	closeOnce sync.Once
	closeErr  error
}

// MappedBytes returns the size of the live mapped region (0 when the model
// was copy-decoded on a host that cannot alias, or after Close).
func (mm *Mapped) MappedBytes() int { return len(mm.data) }

// Close releases the mapping. Idempotent.
func (mm *Mapped) Close() error {
	mm.closeOnce.Do(func() {
		if mm.data != nil {
			mm.closeErr = syscall.Munmap(mm.data)
			mm.data = nil
		}
	})
	return mm.closeErr
}

// OpenMapped maps a flat checkpoint and returns a model whose weights alias
// the mapped pages. Both checksums (header and whole-file) are verified at
// open — a sequential pass through the page cache, still far cheaper than a
// gob decode — so a truncated or torn file is a clean error, never a panic
// or a silently wrong model.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(flatMagic)+16) {
		return nil, fmt.Errorf("kge: flat open %s: file too small (%d bytes)", path, size)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("kge: flat open %s: file too large to map", path)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("kge: flat open %s: mmap: %w", path, err)
	}
	m, aliased, err := parseFlat(data)
	if err != nil || !aliased {
		syscall.Munmap(data)
		data = nil
	}
	if err != nil {
		return nil, fmt.Errorf("kge: flat open %s: %w", path, err)
	}
	return &Mapped{Trainable: m, data: data}, nil
}

// LoadAuto opens a checkpoint in either format, sniffed by magic. For flat
// checkpoints it returns the derived model plus the mmap handle to close
// after the model's last use. For gob checkpoints mapped is nil. format is
// "flat" or "gob".
func LoadAuto(path string) (m Model, mapped *Mapped, format string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, "", err
	}
	var magic [len(flatMagic)]byte
	_, rerr := io.ReadFull(f, magic[:])
	f.Close()
	if rerr == nil && string(magic[:]) == flatMagic {
		mm, err := OpenMapped(path)
		if err != nil {
			return nil, nil, "", err
		}
		return mm.Trainable, mm, "flat", nil
	}
	m, err = LoadFile(path)
	if err != nil {
		return nil, nil, "", err
	}
	return m, nil, "gob", nil
}

// parseFlat validates a mapped flat checkpoint and reconstructs its model.
// aliased reports whether the parameter tables point into data (true on
// little-endian hosts) or were copied out (big-endian fallback). Every read
// is bounds-checked through flatCursor: arbitrary truncation or corruption
// must surface as an error, never a panic.
func parseFlat(data []byte) (m Model, aliased bool, err error) {
	size := len(data)
	c := &flatCursor{b: data}

	if string(c.bytes(len(flatMagic))) != flatMagic {
		return nil, false, fmt.Errorf("bad magic (not a flat checkpoint)")
	}
	if v := c.u32(); c.err == nil && v != flatVersion {
		return nil, false, fmt.Errorf("unsupported flat version %d (want %d)", v, flatVersion)
	}
	hdrSize := int(c.u32())
	if c.err != nil {
		return nil, false, c.err
	}
	if hdrSize < len(flatMagic)+16 || hdrSize > size-4 {
		return nil, false, fmt.Errorf("implausible header size %d for %d-byte file", hdrSize, size)
	}
	// Both checksums up front: the header CRC pins the layout metadata, the
	// file CRC pins the weight bytes the header points at.
	wantHdrCRC := binary.LittleEndian.Uint32(data[hdrSize-4 : hdrSize])
	if got := crc32.ChecksumIEEE(data[:hdrSize-4]); got != wantHdrCRC {
		return nil, false, fmt.Errorf("header checksum mismatch (file %08x, computed %08x)", wantHdrCRC, got)
	}
	wantFileCRC := binary.LittleEndian.Uint32(data[size-4:])
	if got := crc32.ChecksumIEEE(data[:size-4]); got != wantFileCRC {
		return nil, false, fmt.Errorf("file checksum mismatch (file %08x, computed %08x)", wantFileCRC, got)
	}

	name := c.str(flatMaxName)
	var raw [8]int64
	for i := range raw {
		raw[i] = int64(c.u64())
	}
	cfg := Config{
		NumEntities: int(raw[0]), NumRelations: int(raw[1]), Dim: int(raw[2]), Seed: raw[3],
		ConvEHeight: int(raw[5]), ConvEWidth: int(raw[6]), ConvEFilters: int(raw[7]),
	}
	nrec := int(c.u32())
	if c.err != nil {
		return nil, false, c.err
	}
	if err := checkNorm(raw[4]); err != nil {
		return nil, false, err
	}
	if nrec < 0 || nrec > flatMaxRecords {
		return nil, false, fmt.Errorf("implausible record count %d", nrec)
	}
	type rec struct {
		rows, cols int
		off, count int
	}
	recs := map[string]rec{} // not sized by nrec: the records read bound it
	var floats uint64
	for i := 0; i < nrec; i++ {
		rname := c.str(flatMaxName)
		rows, cols := int(c.u32()), int(c.u32())
		off, count := c.u64(), c.u64()
		if c.err != nil {
			return nil, false, c.err
		}
		if off%flatAlign != 0 || off > uint64(size-4) || count > uint64(size)/4 ||
			uint64(size-4)-off < 4*count {
			return nil, false, fmt.Errorf("record %q data [%d, +%d floats) outside the file", rname, off, count)
		}
		if rows < 0 || cols < 0 || uint64(rows)*uint64(cols) != count {
			return nil, false, fmt.Errorf("record %q shape [%d %d] does not match %d floats", rname, rows, cols, count)
		}
		if int(off) < hdrSize {
			return nil, false, fmt.Errorf("record %q data overlaps the header", rname)
		}
		if _, dup := recs[rname]; dup {
			return nil, false, fmt.Errorf("duplicate record %q", rname)
		}
		recs[rname] = rec{rows: rows, cols: cols, off: int(off), count: int(count)}
		floats += count
	}
	if c.off > hdrSize-4 {
		return nil, false, fmt.Errorf("header records overrun the declared header size")
	}

	m, err = newUnfilled(name, cfg, nrec, floats, func(param string) (int, int, bool) {
		r, ok := recs[param]
		return r.rows, r.cols, ok
	})
	if err != nil {
		return nil, false, err
	}
	for _, p := range m.Params().List() {
		r := recs[p.Name]
		raw := data[r.off : r.off+4*r.count]
		if hostLittleEndian {
			p.M.Data = f32view(raw, r.count)
		} else {
			dst := make([]float32, r.count)
			for i := range dst {
				dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			}
			p.M.Data = dst
		}
	}
	return m, hostLittleEndian, nil
}

// f32view reinterprets b as a float32 slice without copying. b must be
// 4-byte aligned and hold at least 4n bytes; the record alignment checks in
// parseFlat guarantee both.
func f32view(b []byte, n int) []float32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
}

// flatCursor is a bounds-checked sequential reader over a byte slice. After
// any out-of-range read it parks an error and returns zero values, so
// parsing code can read a whole section and check err once.
type flatCursor struct {
	b   []byte
	off int
	err error
}

func (c *flatCursor) bytes(n int) []byte {
	if c.err != nil || n < 0 || len(c.b)-c.off < n {
		if c.err == nil {
			c.err = fmt.Errorf("truncated header (need %d bytes at offset %d of %d)", n, c.off, len(c.b))
		}
		return nil
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b
}

func (c *flatCursor) u32() uint32 {
	b := c.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *flatCursor) u64() uint64 {
	b := c.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (c *flatCursor) str(max int) string {
	n := int(c.u32())
	if c.err != nil {
		return ""
	}
	if n < 0 || n > max {
		c.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	return string(c.bytes(n))
}

// flatCRCWriter forwards writes while accumulating the running file CRC.
type flatCRCWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *flatCRCWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	return n, err
}

func putU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func putU64(b *bytes.Buffer, v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.Write(tmp[:])
}
