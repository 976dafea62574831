package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// rssSampler tracks the peak resident set size of the process between
// resets by sampling /proc/self/statm. A rep's peak, unlike the process
// high-water mark, does not carry over from set-up or from earlier reps,
// so its median over reps is steady.
type rssSampler struct {
	f    *os.File
	peak atomic.Int64 // bytes
	stop chan struct{}
	done chan struct{}
}

const rssEvery = 2 * time.Millisecond

func startRSS() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, fmt.Errorf("rss sampler: %w", err)
	}
	s := &rssSampler{f: f, stop: make(chan struct{}), done: make(chan struct{})}
	if _, err := s.read(); err != nil {
		f.Close()
		return nil, err
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s, nil
}

// read returns the current resident set size in bytes.
func (s *rssSampler) read() (int64, error) {
	var buf [128]byte
	n, err := s.f.ReadAt(buf[:], 0)
	if n == 0 && err != nil {
		return 0, fmt.Errorf("rss sampler: %w", err)
	}
	f := bytes.Fields(buf[:n])
	if len(f) < 2 {
		return 0, fmt.Errorf("rss sampler: malformed statm %q", buf[:n])
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("rss sampler: %w", err)
	}
	return pages * int64(os.Getpagesize()), nil
}

func (s *rssSampler) sample() {
	v, err := s.read()
	if err != nil {
		return
	}
	for {
		p := s.peak.Load()
		if v <= p || s.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// reset starts a new peak from the current resident size.
func (s *rssSampler) reset() {
	s.peak.Store(0)
	s.sample()
}

// takeMB samples once more and returns the peak since reset, in MB.
func (s *rssSampler) takeMB() float64 {
	s.sample()
	return float64(s.peak.Load()) / (1 << 20)
}

func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
	s.f.Close()
}
