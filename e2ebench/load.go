package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client drives one server over at most `conns` keep-alive
// connections, one per worker goroutine. A worker writes its request and
// parses the reply itself (http.ReadResponse over the raw connection),
// so no request is handed between goroutines on the client side, where
// every hand-off would add wake-up latency to the measurement.
type client struct {
	addr  string // host:port
	conns int
}

// conn is one worker's keep-alive connection.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	buf  []byte
}

func (k *conn) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if k.nc == nil {
		nc, err := net.DialTimeout("tcp", k.addr, 5*time.Second)
		if err != nil {
			return 0, nil, err
		}
		k.nc, k.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	k.buf = append(k.buf[:0], "POST "...)
	k.buf = append(k.buf, path...)
	k.buf = append(k.buf, " HTTP/1.1\r\nHost: "...)
	k.buf = append(k.buf, k.addr...)
	k.buf = append(k.buf, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	k.buf = strconv.AppendInt(k.buf, int64(len(body)), 10)
	k.buf = append(k.buf, "\r\n\r\n"...)
	k.buf = append(k.buf, body...)
	if err := k.nc.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		k.close()
		return 0, nil, err
	}
	if _, err := k.nc.Write(k.buf); err != nil {
		k.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		k.close()
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		k.close()
	}
	return resp.StatusCode, b, err
}

func (k *conn) close() {
	if k.nc != nil {
		k.nc.Close()
		k.nc = nil
	}
}

// sample is one request's record. Times are offsets from the phase
// start. Responses are judged after the phase, so checking answers
// never delays the load.
type sample struct {
	q       int // question index; -1 for a feed
	feed    int // feed index when q < 0
	due     time.Duration
	emitted time.Duration // when the generator released it
	sent    time.Duration
	done    time.Duration
	status  int
	body    []byte
	err     error
	// Feed states the answer may reflect: feeds completed before the
	// request was sent, feeds sent before its response arrived.
	lo, hi int32
}

func (s *sample) ok() bool { return s.err == nil && s.status >= 200 && s.status < 300 }

// feedCounters track how many feeds have been sent and completed, for
// judging answers that raced a feed.
type feedCounters struct{ sent, done atomic.Int32 }

// do sends one sample's request over k and records its times.
func (k *conn) do(ctx context.Context, t *traffic, fc *feedCounters, start time.Time, s *sample) {
	path, body := "/ask", []byte(nil)
	if s.q < 0 {
		path, body = "/harvest", t.feeds[s.feed].body
		fc.sent.Add(1)
	} else {
		body = t.questions[s.q].body
		s.lo = fc.done.Load()
	}
	s.sent = time.Since(start)
	s.status, s.body, s.err = k.post(ctx, path, body)
	s.done = time.Since(start)
	if s.q < 0 {
		fc.done.Add(1)
	} else {
		s.hi = fc.sent.Load()
	}
}

// openLoop sends the schedule at its due times over c.conns workers.
// Each latency runs from the due time, so a stall that delays later
// requests is charged to them rather than hidden.
func (c *client) openLoop(ctx context.Context, t *traffic, fc *feedCounters, sched []sample) time.Duration {
	jobs := make(chan int, len(sched)) // sized to the number of sends
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := &conn{addr: c.addr}
			defer k.close()
			for i := range jobs {
				k.do(ctx, t, fc, start, &sched[i])
			}
		}()
	}
	// The generator sleeps on its own OS thread with nanosleep: the
	// runtime's timers wake up to a millisecond late when the process
	// is otherwise idle, which at 1,500 requests/s would be most of an
	// inter-arrival gap.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := range sched {
		for d := sched[i].due - time.Since(start); d > 0; d = sched[i].due - time.Since(start) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
		}
		sched[i].emitted = time.Since(start)
		jobs <- i
		if ctx.Err() != nil {
			break
		}
	}
	close(jobs)
	wg.Wait()
	return time.Since(start)
}

// schedule lays out the open-loop phase: n asks from the stream at a
// fixed rate, plus (when feeds run under load) the feeds spaced evenly
// through the phase, merged in due-time order.
func schedule(t *traffic, rate float64, phase time.Duration, withFeeds bool) []sample {
	n := int(rate * phase.Seconds())
	out := make([]sample, 0, n+len(t.feeds))
	for i := 0; i < n; i++ {
		out = append(out, sample{q: t.stream[i], due: time.Duration(float64(i) / rate * float64(time.Second))})
	}
	if withFeeds {
		for j := range t.feeds {
			at := time.Duration((float64(j) + 0.5) / float64(len(t.feeds)) * float64(phase))
			out = append(out, sample{q: -1, feed: j, due: at})
		}
		sort.SliceStable(out, func(a, b int) bool { return out[a].due < out[b].due })
	}
	return out
}

// closedLoop runs c.conns clients, each sending its next request when
// the previous one completes, through the stream from offset `from`
// until the phase ends.
func (c *client) closedLoop(ctx context.Context, t *traffic, fc *feedCounters, from int, phase time.Duration) ([]sample, time.Duration) {
	var next atomic.Int64
	next.Store(int64(from))
	per := make([][]sample, c.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := &conn{addr: c.addr}
			defer k.close()
			for time.Since(start) < phase && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				s := sample{q: t.stream[i%len(t.stream)]}
				k.do(ctx, t, fc, start, &s)
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}

// feedsAlone sends every feed in order over one connection, with no
// other load.
func (c *client) feedsAlone(ctx context.Context, t *traffic, fc *feedCounters) []sample {
	out := make([]sample, len(t.feeds))
	k := &conn{addr: c.addr}
	defer k.close()
	start := time.Now()
	for j := range t.feeds {
		out[j] = sample{q: -1, feed: j, due: time.Since(start)}
		k.do(ctx, t, fc, start, &out[j])
	}
	return out
}

// warmUp asks every question of the universe once through /ask/batch
// (64 per batch over c.conns connections), so lazily decoded snapshot
// state, per-sentence memos and compiled plans are built before anything
// is timed. Any batch not answered with 200 fails the run.
func (c *client) warmUp(ctx context.Context, t *traffic) error {
	const batch = 64
	var chunks [][]byte
	for i := 0; i < len(t.questions); i += batch {
		var qs []string
		for _, q := range t.questions[i:min(i+batch, len(t.questions))] {
			qs = append(qs, q.text)
		}
		b, err := json.Marshal(map[string][]string{"questions": qs})
		if err != nil {
			return err
		}
		chunks = append(chunks, b)
	}
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := &conn{addr: c.addr}
			defer k.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(chunks) || ctx.Err() != nil {
					return
				}
				status, body, err := k.post(ctx, "/ask/batch", chunks[i])
				if err != nil || status != http.StatusOK {
					firstErr.CompareAndSwap(nil, fmt.Sprintf("status %d err %v body %.200s", status, err, body))
				}
			}
		}()
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return fmt.Errorf("warm-up batch failed: %s", e)
	}
	return ctx.Err()
}

// askResp and feedResp are the parts of the server's replies the
// truth checker reads.
type askResp struct {
	Answer *answerJSON `json:"answer"`
	OLAP   *struct {
		Rows []olapRow `json:"rows"`
	} `json:"olap"`
	Error string `json:"error"`
}

type feedResp struct {
	Normalized int `json:"normalized"`
	Loaded     int `json:"loaded"`
	Skipped    int `json:"skipped"`
	Rejected   int `json:"rejected"`
	Results    []struct {
		Answers int    `json:"answers"`
		Loaded  int    `json:"loaded"`
		Skipped int    `json:"skipped"`
		Error   string `json:"error"`
	} `json:"results"`
}
