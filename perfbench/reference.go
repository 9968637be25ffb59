package main

import (
	"container/heap"
	"math/rand"
	"time"
)

// The reference kernel is a fixed piece of work the benchmark owns and
// no simulator change can touch. Each repetition times it first, in its
// own fresh process before any simulator call, and divides its timings
// by it: the host this benchmark runs on is a shared VM whose speed
// drifts by up to 2.5x over an hour, and the reference slows down with
// it. Timing metrics are therefore reported in reference-host seconds:
// measured seconds × refNominal / measured reference time. A change
// that slows the simulator by 10% still reads 10% slower.
//
// The kernel mixes the three kinds of host work the workloads spend
// their time on: a pointer heap of timed events (the event queues),
// allocating copies of 1 MiB buffers (payload moves, clones, the
// collector), and an unbuffered channel handoff between two goroutines
// (the guest scheduler).

// refNominal is the reference kernel's time on the 2-vCPU VM the
// benchmark was built on, in a quiet period, so that normalized
// timings read about as that host's seconds.
const refNominal = 100 * time.Millisecond

type refEvent struct {
	at  int64
	seq int
	pad [4]int64
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// reference runs the kernel once and returns its host time and a
// checksum of its results (which keeps the work from being optimised
// away and is the same on every run).
func reference() (time.Duration, int64) {
	t := time.Now()
	var sum int64

	r := rand.New(rand.NewSource(1))
	h := &refHeap{}
	for i := 0; i < 1<<17; i++ {
		heap.Push(h, &refEvent{at: r.Int63n(1 << 30), seq: i})
	}
	for h.Len() > 0 {
		sum = sum*31 + heap.Pop(h).(*refEvent).at
	}

	src := make([]byte, 1<<20)
	for i := range src {
		src[i] = byte(i * 7)
	}
	for i := 0; i < 96; i++ {
		dst := make([]byte, len(src))
		copy(dst, src)
		sum += int64(dst[i*1000])
	}

	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := 0; i < 30000; i++ {
		ping <- i
		sum += int64(<-pong)
	}
	close(ping)
	<-pong

	return time.Since(t), sum
}
