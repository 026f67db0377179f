package store

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"repaircount/internal/faultfs"
	"repaircount/internal/relational"
)

// Options selects the optional precomputed sections of a snapshot. The
// zero value writes the minimal snapshot (symbols, facts, keys); counting
// workloads want both extras so a load is instance-ready without any
// O(n log n) recomputation.
type Options struct {
	// Blocks includes the canonical conflict-block partition.
	Blocks bool
	// Postings includes the eval.Index argument-position posting lists.
	Postings bool
}

// DefaultOptions enables every precomputed section.
var DefaultOptions = Options{Blocks: true, Postings: true}

// Write serializes the instance (D, Σ) as a version-1 snapshot. Facts are
// re-interned in canonical order — symbol IDs in the file are
// first-appearance ordinals over the canonical fact sequence — so the
// output is deterministic for a given instance regardless of insertion
// order. The stream is written section by section; w needs no seeking.
func Write(w io.Writer, db *relational.Database, ks *relational.KeySet, opts Options) error {
	_, err := WriteCRC(w, db, ks, opts)
	return err
}

// WriteCRC is Write, additionally returning the snapshot's base digest —
// the CRC-32C of every byte before the trailer, zero-extended to 64 bits,
// exactly the value the trailer records and Snapshot.BaseCRC reports after
// a load. Shard manifests store this digest per shard.
func WriteCRC(w io.Writer, db *relational.Database, ks *relational.KeySet, opts Options) (uint64, error) {
	img, err := buildImage(db, ks, opts)
	if err != nil {
		return 0, err
	}
	return img.stream(w)
}

// WriteFile writes the instance to path with DefaultOptions (all
// precomputed sections). The write is atomic and durable: the snapshot is
// streamed to a temporary file in the destination directory, fsynced,
// renamed over path and the directory fsynced — a crash at any point
// leaves either the old file intact or the new one complete, never a
// half-written snapshot under the final name.
func WriteFile(path string, db *relational.Database, ks *relational.KeySet) error {
	return faultfs.WriteFileAtomic(path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<16)
		if err := Write(bw, db, ks, DefaultOptions); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// image is the fully-columnar in-memory form of a snapshot, ready to
// stream. Building it is the offline (write-side) cost; loads never
// construct one.
type image struct {
	flags      uint32
	constBytes []byte
	constOffs  []uint32
	predBytes  []byte
	predOffs   []uint32
	schema     []uint32 // numPreds × {arity, keyWidth+1}
	extraKeys  []byte
	fpred      []uint32
	factOffs   []uint32
	factArgs   []uint32
	domOrder   []uint32
	blockBnds  []uint32
	postKeys   []uint32
	postOffs   []uint32
	postOrds   []uint32
}

// buildImage lays the instance out as the format's columns.
func buildImage(db *relational.Database, ks *relational.KeySet, opts Options) (*image, error) {
	facts := db.Facts() // canonical order
	if len(facts) >= math.MaxInt32 {
		return nil, fmt.Errorf("store: %d facts exceed the int32 ordinal space", len(facts))
	}
	img := &image{}
	in := relational.NewInterner()
	img.fpred = make([]uint32, len(facts))
	img.factOffs = make([]uint32, len(facts)+1)
	for i, f := range facts {
		pid, args := in.InternFact(f, img.factArgs)
		img.factArgs = args
		img.fpred[i] = pid
		img.factOffs[i+1] = uint32(len(args))
	}
	if len(img.factArgs) >= math.MaxInt32 {
		return nil, fmt.Errorf("store: argument arena of %d words exceeds the int32 offset space", len(img.factArgs))
	}

	// Symbol tables, in ID order.
	img.constOffs = make([]uint32, 1, in.NumConsts()+1)
	for id := 0; id < in.NumConsts(); id++ {
		img.constBytes = append(img.constBytes, in.ConstAt(uint32(id))...)
		img.constOffs = append(img.constOffs, uint32(len(img.constBytes)))
	}
	img.predOffs = make([]uint32, 1, in.NumPreds()+1)
	for id := 0; id < in.NumPreds(); id++ {
		img.predBytes = append(img.predBytes, in.PredAt(uint32(id))...)
		img.predOffs = append(img.predOffs, uint32(len(img.predBytes)))
	}
	if len(img.constBytes) >= math.MaxInt32 || len(img.predBytes) >= math.MaxInt32 {
		return nil, fmt.Errorf("store: symbol arena exceeds the uint32 offset space")
	}

	// Schema and key metadata. Key widths clamp into {none} ∪ [0, arity]:
	// keyOf semantics ignore a key wider than the arity.
	schema := db.Schema()
	kwEff := make([]int, in.NumPreds()) // effective key width for block cuts
	for id := 0; id < in.NumPreds(); id++ {
		name := in.PredAt(uint32(id))
		arity := schema[name]
		kw := arity
		enc := uint32(0) // no key
		if w, ok := ks.Width(name); ok {
			enc = uint32(w) + 1
			if w <= arity {
				kw = w
			}
		}
		kwEff[id] = kw
		img.schema = append(img.schema, uint32(arity), enc)
	}
	// Keys whose predicate owns no serialized schema entry (no live fact
	// re-interned it — either absent from the data or deleted down to zero)
	// travel in the extra-key section instead.
	var extra []string
	for _, p := range ks.Predicates() {
		if _, used := in.LookupPred(p); !used {
			extra = append(extra, p)
		}
	}
	var ebuf [4]byte
	le.PutUint32(ebuf[:], uint32(len(extra)))
	img.extraKeys = append(img.extraKeys, ebuf[:]...)
	for _, p := range extra {
		w, _ := ks.Width(p)
		le.PutUint32(ebuf[:], uint32(w))
		img.extraKeys = append(img.extraKeys, ebuf[:]...)
		le.PutUint32(ebuf[:], uint32(len(p)))
		img.extraKeys = append(img.extraKeys, ebuf[:]...)
		img.extraKeys = append(img.extraKeys, p...)
	}

	// Active domain: constant IDs in sorted-symbol order.
	img.domOrder = make([]uint32, in.NumConsts())
	for i := range img.domOrder {
		img.domOrder[i] = uint32(i)
	}
	sort.Slice(img.domOrder, func(i, j int) bool {
		return in.ConstAt(img.domOrder[i]) < in.ConstAt(img.domOrder[j])
	})

	if opts.Blocks {
		img.flags |= flagBlocks
		img.blockBnds = blockBoundaries(img.fpred, img.factOffs, img.factArgs,
			func(pred uint32) uint32 { return uint32(kwEff[pred]) })
	}
	if opts.Postings {
		img.flags |= flagPostings
		img.buildPostings()
	}
	return img, nil
}

// blockBoundaries cuts a canonical fact sequence into its conflict
// blocks: a new block starts whenever the predicate or the effective key
// prefix changes. Because the canonical fact order sorts by predicate and
// then argument-wise, facts sharing a key value are contiguous and the
// resulting block sequence is exactly the lexicographic order ≺(D,Σ) that
// relational.Blocks produces. Shared by the writer and (for snapshots
// written without the precomputed section) the loader.
func blockBoundaries(fpred, factOffs, factArgs []uint32, kwEff func(pred uint32) uint32) []uint32 {
	n := len(fpred)
	bounds := make([]uint32, 1, n+1)
	for i := 1; i < n; i++ {
		if fpred[i] != fpred[i-1] {
			bounds = append(bounds, uint32(i))
			continue
		}
		kw := kwEff(fpred[i])
		a := factArgs[factOffs[i]:][:kw]
		b := factArgs[factOffs[i-1]:][:kw]
		if !relational.U32Equal(a, b) {
			bounds = append(bounds, uint32(i))
		}
	}
	if n > 0 {
		bounds = append(bounds, uint32(n))
	}
	return bounds
}

// buildPostings materializes the (predicate, argument position, constant)
// posting lists in ascending triple order, each list ascending — the exact
// contents eval.Index computes lazily, precomputed once at build time.
func (img *image) buildPostings() {
	type key struct{ pred, pos, cid uint32 }
	lists := map[key][]uint32{}
	for i := range img.fpred {
		args := img.factArgs[img.factOffs[i]:img.factOffs[i+1]]
		for pos, cid := range args {
			k := key{pred: img.fpred[i], pos: uint32(pos), cid: cid}
			lists[k] = append(lists[k], uint32(i))
		}
	}
	keys := make([]key, 0, len(lists))
	for k := range lists {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.pred != b.pred {
			return a.pred < b.pred
		}
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.cid < b.cid
	})
	img.postOffs = make([]uint32, 1, len(keys)+1)
	for _, k := range keys {
		img.postKeys = append(img.postKeys, k.pred, k.pos, k.cid)
		img.postOrds = append(img.postOrds, lists[k]...)
		img.postOffs = append(img.postOffs, uint32(len(img.postOrds)))
	}
}

// section pairs a section ID with its payload length and emitter.
type section struct {
	id   uint32
	size uint64
	emit func(*crcWriter) error
}

// sections lists the image's sections in file order.
func (img *image) sections() []section {
	bytesSec := func(id uint32, b []byte) section {
		return section{id: id, size: uint64(len(b)), emit: func(w *crcWriter) error { return w.bytes(b) }}
	}
	u32Sec := func(id uint32, v []uint32) section {
		return section{id: id, size: 4 * uint64(len(v)), emit: func(w *crcWriter) error { return w.u32s(v) }}
	}
	out := []section{
		bytesSec(secConstBytes, img.constBytes),
		u32Sec(secConstOffs, img.constOffs),
		bytesSec(secPredBytes, img.predBytes),
		u32Sec(secPredOffs, img.predOffs),
		u32Sec(secSchema, img.schema),
		bytesSec(secExtraKeys, img.extraKeys),
		u32Sec(secFactPred, img.fpred),
		u32Sec(secFactOffs, img.factOffs),
		u32Sec(secFactArgs, img.factArgs),
		u32Sec(secDomOrder, img.domOrder),
	}
	if img.flags&flagBlocks != 0 {
		out = append(out, u32Sec(secBlockBounds, img.blockBnds))
	}
	if img.flags&flagPostings != 0 {
		out = append(out,
			u32Sec(secPostKeys, img.postKeys),
			u32Sec(secPostOffs, img.postOffs),
			u32Sec(secPostOrds, img.postOrds))
	}
	return out
}

// stream writes header, section table, padded sections and the checksum
// trailer, accumulating the CRC as it goes.
func (img *image) stream(w io.Writer) (uint64, error) {
	secs := img.sections()
	off := uint64(headerSize + entrySize*len(secs))
	offsets := make([]uint64, len(secs))
	for i, s := range secs {
		off = align8(off)
		offsets[i] = off
		off += s.size
	}
	fileSize := off + trailerLen

	cw := &crcWriter{w: w}
	var hdr [headerSize]byte
	copy(hdr[:4], magic)
	le.PutUint32(hdr[4:], version)
	le.PutUint32(hdr[8:], img.flags)
	le.PutUint32(hdr[12:], uint32(len(secs)))
	le.PutUint64(hdr[16:], fileSize)
	if err := cw.bytes(hdr[:]); err != nil {
		return 0, err
	}
	var ent [entrySize]byte
	for i, s := range secs {
		le.PutUint32(ent[0:], s.id)
		le.PutUint32(ent[4:], 0)
		le.PutUint64(ent[8:], offsets[i])
		le.PutUint64(ent[16:], s.size)
		if err := cw.bytes(ent[:]); err != nil {
			return 0, err
		}
	}
	for i, s := range secs {
		if err := cw.pad(offsets[i]); err != nil {
			return 0, err
		}
		if err := s.emit(cw); err != nil {
			return 0, err
		}
	}
	digest := uint64(cw.crc)
	var tr [trailerLen]byte
	le.PutUint64(tr[:], digest)
	return digest, cw.bytes(tr[:])
}

// crcWriter streams bytes to w while folding them into a running
// CRC-32C and tracking the absolute offset.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   uint64
	buf [1 << 14]byte
}

func (c *crcWriter) bytes(b []byte) error {
	c.crc = crc32.Update(c.crc, crcTable, b)
	c.n += uint64(len(b))
	_, err := c.w.Write(b)
	return err
}

// u32s emits a uint32 column little-endian, in chunks of the scratch
// buffer.
func (c *crcWriter) u32s(vals []uint32) error {
	for len(vals) > 0 {
		n := len(c.buf) / 4
		if n > len(vals) {
			n = len(vals)
		}
		for i, v := range vals[:n] {
			le.PutUint32(c.buf[4*i:], v)
		}
		if err := c.bytes(c.buf[:4*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// pad writes zero bytes up to the absolute offset off.
func (c *crcWriter) pad(off uint64) error {
	var zero [8]byte
	for c.n < off {
		k := off - c.n
		if k > uint64(len(zero)) {
			k = uint64(len(zero))
		}
		if err := c.bytes(zero[:k]); err != nil {
			return err
		}
	}
	return nil
}
