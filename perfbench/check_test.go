package main

import "testing"

func heapWords(n int) []uint64 { return make([]uint64, n) }

// feed builds two consumer logs over two producers that each offered
// accepted values, replays the given (consumer, producer, seq) receipts and
// runs the check.
func feed(accepted []uint64, receipts [][3]int) *violation {
	limits := []uint64{256, 256}
	logs := []*consumerLog{newConsumerLog(0, limits, heapWords), newConsumerLog(1, limits, heapWords)}
	for _, r := range receipts {
		logs[r[0]].record(r[1], uint64(r[2]))
	}
	return check(accepted, logs)
}

// clean splits producer 0's values 0..9 and producer 1's 0..4 between the
// two consumers, each in increasing order.
func clean() [][3]int {
	var rs [][3]int
	for s := 0; s < 10; s++ {
		rs = append(rs, [3]int{s % 2, 0, s})
	}
	for s := 0; s < 5; s++ {
		rs = append(rs, [3]int{1, 1, s})
	}
	return rs
}

func without(rs [][3]int, skip [3]int) [][3]int {
	var out [][3]int
	for _, r := range rs {
		if r != skip {
			out = append(out, r)
		}
	}
	return out
}

func TestCheckAcceptsExactOutput(t *testing.T) {
	if v := feed([]uint64{10, 5}, clean()); v != nil {
		t.Fatalf("clean run flagged: %v", v)
	}
}

func TestCheckFlagsLostValue(t *testing.T) {
	v := feed([]uint64{10, 5}, without(clean(), [3]int{1, 0, 7}))
	want := violation{Kind: "lost", Producer: 0, Seq: 7, Consumer: -1, Position: -1}
	if v == nil || *v != want {
		t.Fatalf("got %v, want %v", v, &want)
	}
}

func TestCheckFlagsValueDuplicatedAcrossConsumers(t *testing.T) {
	// Consumer 0 also receives producer 1's seq 2, which consumer 1 holds
	// at position 2. Each stream is in order on its own, so only the
	// cross-consumer pass catches it; it names the later consumer.
	rs := append(clean(), [3]int{0, 1, 2})
	v := feed([]uint64{10, 5}, rs)
	want := violation{Kind: "duplicated", Producer: 1, Seq: 2, Consumer: 1, Position: 2}
	if v == nil || *v != want {
		t.Fatalf("got %v, want %v", v, &want)
	}
}

func TestCheckFlagsValueDuplicatedInOneConsumer(t *testing.T) {
	rs := [][3]int{{0, 0, 0}, {0, 0, 1}, {0, 0, 1}, {0, 0, 2}}
	v := feed([]uint64{3, 0}, rs)
	want := violation{Kind: "duplicated", Producer: 0, Seq: 1, Consumer: 0, Position: 2}
	if v == nil || *v != want {
		t.Fatalf("got %v, want %v", v, &want)
	}
}

func TestCheckFlagsReorderedValue(t *testing.T) {
	rs := [][3]int{{1, 0, 0}, {1, 0, 2}, {1, 0, 1}, {1, 0, 3}}
	v := feed([]uint64{4, 0}, rs)
	want := violation{Kind: "reordered", Producer: 0, Seq: 1, Consumer: 1, Position: 2}
	if v == nil || *v != want {
		t.Fatalf("got %v, want %v", v, &want)
	}
}

func TestCheckFlagsValueNeverOffered(t *testing.T) {
	rs := append(clean(), [3]int{1, 1, 9})
	v := feed([]uint64{10, 5}, rs)
	want := violation{Kind: "unknown", Producer: 1, Seq: 9, Consumer: 1, Position: 5}
	if v == nil || *v != want {
		t.Fatalf("got %v, want %v", v, &want)
	}
	if v := feed([]uint64{10, 5}, append(clean(), [3]int{0, 5, 0})); v == nil || v.Kind != "unknown" {
		t.Fatalf("value from an unknown producer: got %v", v)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for d := int64(1); d <= 100; d++ {
		h.add(d)
	}
	if p50, p99 := h.quantile(0.5), h.quantile(0.99); p50 != 50 || p99 != 99 {
		t.Fatalf("p50 %v p99 %v, want 50 and 99", p50, p99)
	}
	// Above the exact range a quantile lands within its bucket's 0.4%.
	var big histogram
	big.add(1_000_000)
	if q := big.quantile(0.5); q < 996_000 || q > 1_004_000 {
		t.Fatalf("1ms sample reads %v", q)
	}
}
