package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Payloads are sequence-numbered: the first eight bytes hold the key
// (caller<<48 | seq) and the rest is filler drawn from the seed, so the
// gate catches a corrupted or foreign payload as well as a missing,
// duplicated or reordered one.
const keyBytes = 8

type payloads struct {
	filler []byte
}

func newPayloads(seed int64, size int) payloads {
	f := make([]byte, size-keyBytes)
	rand.New(rand.NewSource(seed)).Read(f)
	return payloads{filler: f}
}

func msgKey(caller int, seq uint64) uint64 { return uint64(caller)<<48 | seq }

func (p payloads) make(caller int, seq uint64) []byte {
	b := make([]byte, keyBytes+len(p.filler))
	binary.BigEndian.PutUint64(b, msgKey(caller, seq))
	copy(b[keyBytes:], p.filler)
	return b
}

// payloadKey reads a payload's key; a payload too short to carry one
// gets a key no caller uses.
func payloadKey(b []byte) uint64 {
	if len(b) < keyBytes {
		return ^uint64(0)
	}
	return binary.BigEndian.Uint64(b)
}

// gate is the correctness check on delivered payloads: each caller's
// payloads must arrive exactly once and, when ordered, in the order the
// caller sent them. It is fed from one goroutine.
type gate struct {
	ordered bool
	filler  []byte
	streams []gateStream
	dup     int64 // deliveries of a payload already delivered
	reorder int64 // first deliveries behind a later payload of the caller
	corrupt int64 // payloads no caller sent
	uniq    int64 // distinct payloads delivered
}

type gateStream struct {
	top  uint64   // one past the highest seq delivered
	seen []uint64 // bitset of delivered seqs
}

func newGate(callers int, ordered bool, p payloads) *gate {
	return &gate{ordered: ordered, filler: p.filler, streams: make([]gateStream, callers)}
}

// deliver checks one delivered payload.
func (g *gate) deliver(b []byte) {
	k := payloadKey(b)
	caller, seq := int(k>>48), k&(1<<48-1)
	if caller >= len(g.streams) || len(b) != keyBytes+len(g.filler) || !bytes.Equal(b[keyBytes:], g.filler) {
		g.corrupt++
		return
	}
	s := &g.streams[caller]
	w, bit := seq/64, uint64(1)<<(seq%64)
	for uint64(len(s.seen)) <= w {
		s.seen = append(s.seen, 0)
	}
	switch {
	case s.seen[w]&bit != 0:
		g.dup++
		return
	case g.ordered && seq < s.top:
		g.reorder++
	}
	s.seen[w] |= bit
	s.top = max(s.top, seq+1)
	g.uniq++
}

// missing counts confirmed payloads the gate never saw: confirmed[c]
// is how many payloads caller c had confirmed, seqs 0..confirmed[c]-1.
func (g *gate) missing(confirmed []uint64) int64 {
	var n int64
	for c, sent := range confirmed {
		s := &g.streams[c]
		for seq := uint64(0); seq < sent; seq++ {
			if w := seq / 64; w >= uint64(len(s.seen)) || s.seen[w]&(1<<(seq%64)) == 0 {
				n++
			}
		}
	}
	return n
}

// verdict totals every failure and describes each kind found.
func (g *gate) verdict(confirmed []uint64, sendErrs int64) (failed int64, problems []string) {
	miss := g.missing(confirmed)
	for _, f := range []struct {
		n    int64
		what string
	}{
		{sendErrs, "send/submit errors"},
		{miss, "confirmed payloads never delivered"},
		{g.dup, "duplicate deliveries"},
		{g.reorder, "out-of-order deliveries"},
		{g.corrupt, "corrupt or foreign payloads"},
	} {
		if f.n > 0 {
			failed += f.n
			problems = append(problems, fmt.Sprintf("%d %s", f.n, f.what))
		}
	}
	return failed, problems
}
