package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"hybridplaw/internal/stream"
	"hybridplaw/internal/xrand"
)

// fuzzArchive builds a small valid PTRC archive for the fuzz corpus.
func fuzzArchive(tb testing.TB, packets int, blockSize int) []byte {
	return fuzzCodecArchive(tb, packets, blockSize, CodecDeflate)
}

// fuzzCodecArchive is fuzzArchive with a codec choice.
func fuzzCodecArchive(tb testing.TB, packets, blockSize int, codec Codec) []byte {
	tb.Helper()
	r := xrand.New(7)
	ps := make([]stream.Packet, packets)
	for i := range ps {
		ps[i] = stream.Packet{
			Src:   uint32(r.Intn(300)),
			Dst:   uint32(r.Intn(300)),
			Valid: r.Intn(10) != 0,
		}
	}
	var buf bytes.Buffer
	if _, err := Record(&buf, stream.NewSliceSource(ps), WriterOptions{
		BlockSize: blockSize, Codec: codec,
	}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReader feeds arbitrary (seeded with valid, truncated and
// bit-flipped archives) bytes to the PTRC Reader, over both its
// per-packet and fused paths, and to Info's footer/index path. The
// invariant under fuzzing: each either succeeds or fails with a
// descriptive error wrapping ErrCorrupt (or a plain I/O error) — it
// must never panic, hang, or allocate unboundedly. The
// allocation bound comes from the header plausibility checks in
// format.go: every decode-side allocation is proportional to bytes
// actually present in the input.
func FuzzReader(f *testing.F) {
	valid := fuzzArchive(f, 2000, 256)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])           // truncated mid-stream
	f.Add(valid[:len(valid)-5])           // truncated footer
	f.Add([]byte(fileMagic))              // magic only
	f.Add([]byte("PTRCBLK2garbage"))      // wrong magic
	f.Add(fuzzArchive(f, 1, 64))          // single packet
	f.Add(fuzzArchive(f, 600, 100)[:200]) // torn first block
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40 // bit flip in a block payload
	f.Add(flipped)
	packed := fuzzCodecArchive(f, 2000, 256, CodecPacked)
	f.Add(packed)                   // packed-column archive
	f.Add(packed[:len(packed)*2/3]) // truncated packed archive
	pflipped := append([]byte(nil), packed...)
	pflipped[len(pflipped)/2] ^= 0x08 // bit flip in a packed payload
	f.Add(pflipped)
	retag := append([]byte(nil), packed...)
	retag[len(fileMagic)] = tagBlock // packed block wearing the DEFLATE tag
	f.Add(retag)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Sequential reader: pure io.Reader path.
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			var n int64
			for {
				if _, ok := r.Next(); !ok {
					break
				}
				n++
				if n > int64(len(data))*maxDeflateRatio {
					t.Fatalf("sequential reader delivered %d packets from %d input bytes", n, len(data))
				}
			}
			checkFuzzErr(t, r.Err())
		}

		// Sequential reader again over the fused path: DecodeInto must
		// uphold the same no-panic/no-unbounded-allocation invariant and
		// classify errors identically.
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			w := stream.NewPairWindow(1 << 12)
			var n int64
			for {
				valid, invalid, full, ok := r.DecodeInto(w)
				n += valid + invalid
				if full {
					w.Reset()
				}
				if !ok {
					break
				}
				if n > int64(len(data))*maxDeflateRatio {
					t.Fatalf("fused reader delivered %d packets from %d input bytes", n, len(data))
				}
			}
			checkFuzzErr(t, r.Err())
		}

		// Info: footer/index path. An accepted index tiles the file with
		// its blocks, so it cannot claim more blocks than the bytes hold.
		info, err := Info(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			checkFuzzErr(t, err)
			return
		}
		if minRec := int64(1 + blockHeaderLen + 1); int64(info.Blocks)*minRec > int64(len(data)) {
			t.Fatalf("Info claims %d blocks in %d input bytes", info.Blocks, len(data))
		}
	})
}

// FuzzDecodeUvarint is the differential fuzz of the branch-reduced
// inline varint decoder against the standard library: at every position
// of arbitrary input, uvarintFast must either return exactly
// binary.Uvarint's (value, width) or signal failure (next <= pos)
// exactly when binary.Uvarint does. The fused hot path's correctness on
// corrupt archives reduces to this equivalence.
func FuzzDecodeUvarint(f *testing.F) {
	f.Add([]byte{0x00}, 0)
	f.Add([]byte{0x7f}, 0)
	f.Add([]byte{0x80, 0x01}, 0)                                                       // 2-byte fast path
	f.Add([]byte{0xff, 0x7f}, 0)                                                       // 2-byte max
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x01}, 0)                                     // slow path
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 0)       // max uint64
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 0) // overlong
	f.Add([]byte{0x80}, 0)                                                             // truncated
	f.Add([]byte{}, 0)
	f.Add(fuzzArchive(f, 100, 32), 11) // mid-archive offsets

	f.Fuzz(func(t *testing.T, data []byte, pos int) {
		if pos < 0 {
			pos = -(pos + 1)
		}
		pos %= len(data) + 1 // any position in [0, len(data)]
		v, next := uvarintFast(data, pos)
		want, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			if next > pos {
				t.Fatalf("pos %d: uvarintFast decoded (%d, width %d), binary.Uvarint failed (k=%d)",
					pos, v, next-pos, k)
			}
			return
		}
		if v != want || next != pos+k {
			t.Fatalf("pos %d: uvarintFast = (%d, next %d), binary.Uvarint = (%d, next %d)",
				pos, v, next, want, pos+k)
		}
	})
}

// refDecodePacked is a deliberately naive reference decoder for the
// packed-column block payload: one bit at a time off a flat LSB-first
// bitstream, uvarints via binary.Uvarint, no batching, no fast paths.
// It exists only as the differential oracle for FuzzPackedCodec — any
// divergence from decodeBlockPacked (which value, or whether the
// payload is corrupt at all) is a bug in the optimized decoder.
func refDecodePacked(raw []byte, n int) ([]stream.Packet, error) {
	pos := 0
	uvarint := func() (uint64, bool) {
		v, k := binary.Uvarint(raw[pos:])
		if k <= 0 {
			return 0, false
		}
		pos += k
		return v, true
	}
	if len(raw) < 1 {
		return nil, errRef
	}
	mode := raw[0]
	pos = 1
	valid := make([]bool, n)
	switch mode {
	case validityRaw:
		if len(raw) < 1+(n+7)/8 {
			return nil, errRef
		}
		for i := 0; i < n; i++ {
			valid[i] = raw[1+i/8]&(1<<uint(i%8)) != 0
		}
		pos = 1 + (n+7)/8
	case validityRLE:
		runCount, ok := uvarint()
		if !ok || runCount == 0 || runCount > uint64(n)+1 {
			return nil, errRef
		}
		at, v := 0, true
		for r := uint64(0); r < runCount; r++ {
			run, ok := uvarint()
			if !ok || (run == 0 && r != 0) || run > uint64(n-at) {
				return nil, errRef
			}
			for i := 0; i < int(run); i++ {
				valid[at+i] = v
			}
			at += int(run)
			v = !v
		}
		if at != n {
			return nil, errRef
		}
	default:
		return nil, errRef
	}

	out := make([]stream.Packet, n)
	for i := range out {
		out[i].Valid = valid[i]
	}
	col := func(at, m int, set func(i int, v uint32)) error {
		if pos >= len(raw) {
			return errRef
		}
		b := int(raw[pos])
		pos++
		if b > 32 {
			return errRef
		}
		ref, ok := uvarint()
		if !ok || ref > uint64(^uint32(0)) {
			return errRef
		}
		if pos >= len(raw) {
			return errRef
		}
		nEx := int(raw[pos])
		pos++
		if nEx > m || pos+nEx > len(raw) {
			return errRef
		}
		exPos := raw[pos : pos+nEx]
		pos += nEx
		prev := -1
		for _, p := range exPos {
			if int(p) <= prev || int(p) >= m {
				return errRef
			}
			prev = int(p)
		}
		exVal := make([]uint64, nEx)
		for i := range exVal {
			d, ok := uvarint()
			if !ok {
				return errRef
			}
			exVal[i] = d
		}
		words := 8 * ((m*b + 63) / 64)
		if pos+words > len(raw) {
			return errRef
		}
		for i := 0; i < m; i++ {
			field := uint64(0)
			for j := 0; j < b; j++ {
				bit := i*b + j
				if raw[pos+bit/8]&(1<<uint(bit%8)) != 0 {
					field |= 1 << uint(j)
				}
			}
			v := ref + field
			if v > uint64(^uint32(0)) {
				return errRef
			}
			set(at+i, uint32(v))
		}
		pos += words
		for k, p := range exPos {
			v := ref + exVal[k]
			if v > uint64(^uint32(0)) {
				return errRef
			}
			set(at+int(p), uint32(v))
		}
		return nil
	}
	for at := 0; at < n; at += packedGroup {
		m := min(packedGroup, n-at)
		if err := col(at, m, func(i int, v uint32) { out[i].Src = v }); err != nil {
			return nil, err
		}
		if err := col(at, m, func(i int, v uint32) { out[i].Dst = v }); err != nil {
			return nil, err
		}
	}
	if pos != len(raw) {
		return nil, errRef
	}
	return out, nil
}

var errRef = errors.New("reference decoder: corrupt payload")

// FuzzPackedCodec is the differential fuzz of the packed-column block
// decoder against refDecodePacked: for arbitrary payload bytes and
// packet counts, both decoders must agree on corrupt-vs-valid, and on
// every decoded packet when valid. Seeds cover valid payloads from the
// real encoder plus bit flips and truncations; the fuzzer mutates from
// there.
func FuzzPackedCodec(f *testing.F) {
	r := xrand.New(11)
	mkPayload := func(n int, invalidEvery int, wide bool) []byte {
		ps := make([]stream.Packet, n)
		for i := range ps {
			ps[i] = stream.Packet{
				Src:   uint32(r.Intn(5000)),
				Dst:   uint32(r.Intn(5000)),
				Valid: invalidEvery == 0 || i%invalidEvery != 0,
			}
			if wide && r.Intn(20) == 0 {
				ps[i].Src = ^uint32(0) - uint32(r.Intn(5))
			}
		}
		payload, _ := encodeBlockPacked(nil, ps)
		return payload
	}
	p600 := mkPayload(600, 7, false)
	f.Add(p600, 600)
	f.Add(mkPayload(1, 0, false), 1)
	f.Add(mkPayload(256, 0, false), 256)
	f.Add(mkPayload(257, 3, true), 257)
	f.Add(p600[:len(p600)/2], 600) // truncated
	flipped := append([]byte(nil), p600...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped, 600) // bit-flipped
	f.Add([]byte{}, 5)
	f.Add([]byte{validityRLE, 3, 1, 1, 1}, 3)

	f.Fuzz(func(t *testing.T, raw []byte, n int) {
		if n < 0 {
			n = -(n + 1)
		}
		n %= 1 << 16 // bound the reference decoder's allocation

		got, gotErr := decodeBlockPacked(raw, n, nil)
		want, wantErr := refDecodePacked(raw, n)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("n=%d: decodeBlockPacked err=%v, reference err=%v", n, gotErr, wantErr)
		}
		if gotErr != nil {
			checkFuzzErr(t, gotErr)
			return
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: decoded %d packets, reference %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d packet %d: decodeBlockPacked %+v, reference %+v", n, i, got[i], want[i])
			}
		}

		// The fused walker must agree with the unfused decode on the
		// same payload: same valid/invalid split, same packed keys.
		var pw packedWalker
		if err := pw.init(raw, n); err != nil {
			t.Fatalf("n=%d: walker init failed on payload decodeBlockPacked accepted: %v", n, err)
		}
		sink := stream.NewPairWindow(int64(len(want)) + 1)
		valid, invalid, err := pw.decodeInto(sink)
		if err != nil {
			t.Fatalf("n=%d: walker failed on payload decodeBlockPacked accepted: %v", n, err)
		}
		var wantValid int64
		for _, p := range want {
			if p.Valid {
				wantValid++
			}
		}
		if valid != wantValid || valid+invalid != int64(n) {
			t.Fatalf("n=%d: walker split %d/%d, want %d valid of %d", n, valid, invalid, wantValid, n)
		}
	})
}

// checkFuzzErr accepts nil (clean replay) or a descriptive corruption
// error; anything else (an empty message, a non-ErrCorrupt failure on
// in-memory input) is a bug surfaced by the fuzzer.
func checkFuzzErr(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		return
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("non-corruption error on in-memory input: %v", err)
	}
	if err.Error() == "" {
		t.Fatal("corruption error with empty message")
	}
}
