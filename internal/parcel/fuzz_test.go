package parcel

import (
	"bytes"
	"testing"

	"repro/internal/agas"
)

// fuzzSeeds are well-formed parcels spanning the wire format's features,
// used both as the fuzz corpus and for round-trip checks.
func fuzzSeeds() []*Parcel {
	return []*Parcel{
		New(agas.GID{Home: 0, Kind: agas.KindData, Seq: 1}, "nop", nil),
		New(agas.GID{Home: 3, Kind: agas.KindLCO, Seq: 42}, "px.lco.set",
			NewArgs().Int64(7).String("payload").Encode()),
		New(agas.GID{Home: 1, Kind: agas.KindData, Seq: 9}, "chain",
			[]byte{0xde, 0xad, 0xbe, 0xef},
			Continuation{Target: agas.GID{Home: 2, Kind: agas.KindLCO, Seq: 10}, Action: "relay"},
			Continuation{Target: agas.GID{Home: 0, Kind: agas.KindLCO, Seq: 11}, Action: "px.lco.set"}),
		{ID: 123, Dest: agas.GID{Home: 5, Kind: agas.KindHardware, Seq: ^uint64(0)},
			Action: "hw.ping", Src: 4, Hops: 3},
		// Boundary shapes for the alias-decode path: args big enough to
		// dominate the frame, a continuation stack at the wire limit, and
		// an empty-args parcel (Args must come back nil, not empty-aliased).
		New(agas.GID{Home: 2, Kind: agas.KindData, Seq: 77}, "bulk",
			bytes.Repeat([]byte{0xa5}, 4096)),
		maxContParcel(),
		New(agas.GID{Home: 6, Kind: agas.KindProcess, Seq: 8}, "spawn", nil,
			Continuation{Target: agas.GID{Home: 6, Kind: agas.KindLCO, Seq: 9}, Action: "join"}),
	}
}

// maxContParcel builds a parcel with a continuation stack at the wire
// limit, every entry distinct.
func maxContParcel() *Parcel {
	p := New(agas.GID{Home: 1, Kind: agas.KindData, Seq: 2}, "fanout", []byte{1})
	for i := 0; i < MaxContinuations; i++ {
		p.Cont = append(p.Cont, Continuation{
			Target: agas.GID{Home: uint32(i), Kind: agas.KindLCO, Seq: uint64(i)},
			Action: "collect",
		})
	}
	return p
}

// FuzzParcelDecode feeds Decode arbitrary bytes: it must never panic, and
// any input it accepts must re-encode and re-decode to the same parcel
// (the codec now consumes untrusted bytes from sockets).
func FuzzParcelDecode(f *testing.F) {
	for _, p := range fuzzSeeds() {
		f.Add(p.Encode(nil))
		// The base encoding followed by the trace trailer:
		// decoders must hand the trailer back as the remainder, untouched.
		f.Add(TraceCtx{ID: 0xabcd, Span: 0x1234, Flags: TraceSampled}.Append(p.Encode(nil)))
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, rest, err := Decode(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("remainder grew: %d bytes from %d input", len(rest), len(data))
		}
		if p.Trace != (TraceCtx{}) {
			t.Fatalf("base decode populated the trace context: %+v", p.Trace)
		}
		re := p.Encode(nil)
		q, tail, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of accepted parcel failed: %v", err)
		}
		if len(tail) != 0 {
			t.Fatalf("re-decode left %d trailing bytes", len(tail))
		}
		if !parcelEqual(p, q) {
			t.Fatalf("round trip mismatch:\n first %+v\nsecond %+v", p, q)
		}
		// DecodeAliased is the same parse with aliased Args: it must
		// accept exactly the same inputs and produce the same parcel,
		// with Args windowing the input rather than copied out of it.
		pa, restA, errA := DecodeAliased(data)
		if errA != nil {
			t.Fatalf("Decode accepted but DecodeAliased rejected: %v", errA)
		}
		if len(restA) != len(rest) || !parcelEqual(p, pa) {
			t.Fatalf("aliased decode diverged:\n copy  %+v\n alias %+v", p, pa)
		}
		if len(pa.Args) > 0 {
			// Prove the alias: flipping the input bytes must show through
			// pa.Args (a copy would keep the original values). p.Args is
			// already a private copy, unaffected.
			for i := range data {
				data[i] = ^data[i]
			}
			if bytes.Equal(pa.Args, p.Args) {
				t.Fatal("DecodeAliased copied Args instead of aliasing the input")
			}
		}
		if len(rest) == TraceWireSize {
			// A trailer-sized remainder must parse and round-trip through
			// Append exactly (the receive path in core depends on this).
			tc, tcRest, terr := DecodeTrace(rest)
			if terr != nil || len(tcRest) != 0 {
				t.Fatalf("trailer decode: %v, %d left", terr, len(tcRest))
			}
			combined := tc.Append(p.Encode(nil))
			q2, rest2, err := Decode(combined)
			if err != nil {
				t.Fatalf("combined re-decode: %v", err)
			}
			tc2, _, terr := DecodeTrace(rest2)
			if terr != nil || tc2 != tc || !parcelEqual(p, q2) {
				t.Fatalf("combined round trip: %+v vs %+v (%v)", tc, tc2, terr)
			}
		}
	})
}

// FuzzParcelDecodeInterned feeds the interned-form decoder arbitrary
// bytes against a small table: it must never panic, and any accepted
// input must re-encode and re-decode identically. The interned decoder
// consumes the same untrusted socket bytes the plain one does.
func FuzzParcelDecodeInterned(f *testing.F) {
	tbl := testTable{"nop", "px.lco.set", "relay"}
	for _, p := range fuzzSeeds() {
		f.Add(p.EncodeInterned(nil, tbl))
		f.Add(p.EncodeInterned(nil, nil))
		f.Add(TraceCtx{ID: 1, Span: 2, Flags: TraceSampled}.Append(p.EncodeInterned(nil, tbl)))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, rest, err := DecodePooledInterned(data, tbl)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("remainder grew: %d bytes from %d input", len(rest), len(data))
		}
		re := p.EncodeInterned(nil, tbl)
		q, tail, err := DecodePooledInterned(re, tbl)
		if err != nil {
			t.Fatalf("re-decode of accepted parcel failed: %v", err)
		}
		if len(tail) != 0 {
			t.Fatalf("re-decode left %d trailing bytes", len(tail))
		}
		if !parcelEqual(p, q) {
			t.Fatalf("round trip mismatch:\n first %+v\nsecond %+v", p, q)
		}
		Release(q)
		Release(p)
	})
}

func TestParcelEncodeDecodeRoundTrip(t *testing.T) {
	for _, p := range fuzzSeeds() {
		wire := p.Encode(nil)
		q, rest, err := Decode(wire)
		if err != nil {
			t.Fatalf("decode %s: %v", p, err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode %s left %d bytes", p, len(rest))
		}
		if !parcelEqual(p, q) {
			t.Fatalf("round trip mismatch:\nsent %+v\ngot  %+v", p, q)
		}
	}
}

func TestEncodeEnforcesWireLimits(t *testing.T) {
	long := string(bytes.Repeat([]byte{'a'}, MaxString+1))
	mustPanic(t, "oversized action", func() {
		(&Parcel{Dest: agas.GID{Home: 0, Kind: agas.KindData, Seq: 1}, Action: long}).Encode(nil)
	})
	mustPanic(t, "oversized continuation stack", func() {
		p := &Parcel{Dest: agas.GID{Home: 0, Kind: agas.KindData, Seq: 1}, Action: "a"}
		p.Cont = make([]Continuation, MaxContinuations+1)
		p.Encode(nil)
	})
	// At the limit, encoding succeeds and survives a round trip.
	p := &Parcel{ID: 1, Dest: agas.GID{Home: 0, Kind: agas.KindData, Seq: 1},
		Action: string(bytes.Repeat([]byte{'b'}, MaxString))}
	q, _, err := Decode(p.Encode(nil))
	if err != nil || q.Action != p.Action {
		t.Fatalf("limit-sized action did not round trip: %v", err)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

func parcelEqual(a, b *Parcel) bool {
	if a.ID != b.ID || a.Dest != b.Dest || a.Action != b.Action ||
		a.Src != b.Src || a.Hops != b.Hops || a.Trace != b.Trace ||
		len(a.Cont) != len(b.Cont) {
		return false
	}
	if !bytes.Equal(a.Args, b.Args) {
		return false
	}
	for i := range a.Cont {
		if a.Cont[i] != b.Cont[i] {
			return false
		}
	}
	return true
}
