package main

import (
	"fmt"
	"math/bits"

	"wfqueue/internal/pad"
)

// The exact output check. Every value a producer offers carries (producer,
// sequence number); a refused offer is retried with the same sequence
// number, so the accepted values of producer p are exactly 0..accepted[p]-1.
// Each consumer keeps a consumerLog: one bitmap per producer marking the
// sequence numbers it received, plus the last sequence number seen from each
// producer. After every goroutine has joined, check verifies that the
// consumers' bitmaps partition each producer's accepted range: every
// accepted value was dequeued exactly once, and nothing else was.

// violation describes the first wrong output the check found. Consumer is -1
// for a lost value (no consumer saw it); Position is the index of the value
// among the values that consumer received from that producer.
type violation struct {
	Kind     string `json:"kind"` // lost, duplicated, reordered, unknown
	Producer int    `json:"producer"`
	Seq      uint64 `json:"seq"`
	Consumer int    `json:"consumer"`
	Position int64  `json:"position"`
}

func (v *violation) String() string {
	return fmt.Sprintf("%s value: producer %d seq %d at consumer %d position %d",
		v.Kind, v.Producer, v.Seq, v.Consumer, v.Position)
}

// consumerLog is one consumer's record of what it dequeued. It is written
// only by its consumer goroutine and read by check after that goroutine
// has joined. The padding keeps two consumers' logs off each other's cache
// lines, so the check adds no false sharing to what the loop measures.
type consumerLog struct {
	_     [2]pad.CacheLinePad
	id    int
	bits  [][]uint64        // per producer, bit seq set once seq was received
	last  [nProducers]int64 // per producer, last sequence number received, or -1
	count [nProducers]int64 // per producer, values received
	first *violation        // first in-stream violation
	_     [2]pad.CacheLinePad
}

// newConsumerLog makes a log for consumer id over producers whose sequence
// numbers stay below limits[p]. The bitmaps come from alloc so callers can
// keep them out of the measured heap.
func newConsumerLog(id int, limits []uint64, alloc func(words int) []uint64) *consumerLog {
	c := &consumerLog{id: id, bits: make([][]uint64, len(limits))}
	for p, n := range limits {
		c.bits[p] = alloc(int((n + 63) / 64))
		c.last[p] = -1
	}
	return c
}

// record notes that this consumer dequeued (p, seq). A value it already
// holds is a duplicate; a value not above the last one from the same
// producer breaks per-producer order.
func (c *consumerLog) record(p int, seq uint64) {
	if p < 0 || p >= len(c.bits) || seq >= uint64(len(c.bits[p]))*64 {
		c.flag("unknown", p, seq, -1)
		return
	}
	w, b := &c.bits[p][seq>>6], uint64(1)<<(seq&63)
	switch {
	case *w&b != 0:
		c.flag("duplicated", p, seq, c.count[p])
	case int64(seq) <= c.last[p]:
		c.flag("reordered", p, seq, c.count[p])
	}
	*w |= b
	c.last[p] = int64(seq)
	c.count[p]++
}

func (c *consumerLog) flag(kind string, p int, seq uint64, pos int64) {
	if c.first == nil {
		c.first = &violation{Kind: kind, Producer: p, Seq: seq, Consumer: c.id, Position: pos}
	}
}

// check returns the first violation across logs, or nil when every
// producer's accepted values 0..accepted[p]-1 were each dequeued exactly
// once. In-stream violations come first, in consumer order; then the
// lowest sequence number lost, duplicated across consumers, or never
// offered.
func check(accepted []uint64, logs []*consumerLog) *violation {
	for _, c := range logs {
		if c.first != nil {
			return c.first
		}
	}
	for p, n := range accepted {
		words := 0
		for _, c := range logs {
			words = max(words, len(c.bits[p]))
		}
		for i := 0; i < words; i++ {
			var seen uint64
			for _, c := range logs {
				if i >= len(c.bits[p]) {
					continue
				}
				w := c.bits[p][i]
				if dup := seen & w; dup != 0 {
					seq := uint64(i)*64 + uint64(bits.TrailingZeros64(dup))
					return &violation{Kind: "duplicated", Producer: p, Seq: seq, Consumer: c.id, Position: c.rank(p, seq)}
				}
				seen |= w
			}
			if miss := want(i, n) &^ seen; miss != 0 {
				seq := uint64(i)*64 + uint64(bits.TrailingZeros64(miss))
				return &violation{Kind: "lost", Producer: p, Seq: seq, Consumer: -1, Position: -1}
			}
			if extra := seen &^ want(i, n); extra != 0 {
				seq := uint64(i)*64 + uint64(bits.TrailingZeros64(extra))
				for _, c := range logs {
					if i < len(c.bits[p]) && c.bits[p][i]&(extra&-extra) != 0 {
						return &violation{Kind: "unknown", Producer: p, Seq: seq, Consumer: c.id, Position: c.rank(p, seq)}
					}
				}
			}
		}
	}
	return nil
}

// want is the mask of accepted sequence numbers in bitmap word i when
// 0..n-1 were accepted.
func want(i int, n uint64) uint64 {
	lo := uint64(i) * 64
	switch {
	case n <= lo:
		return 0
	case n >= lo+64:
		return ^uint64(0)
	default:
		return uint64(1)<<(n-lo) - 1
	}
}

// rank is the position of seq among the values this consumer received from
// producer p: they arrive in increasing order, so it is the number of
// received sequence numbers below seq.
func (c *consumerLog) rank(p int, seq uint64) int64 {
	var r int
	bm := c.bits[p]
	for i := uint64(0); i < seq>>6; i++ {
		r += bits.OnesCount64(bm[i])
	}
	r += bits.OnesCount64(bm[seq>>6] & (uint64(1)<<(seq&63) - 1))
	return int64(r)
}
