package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// ---- the imprintd child ----

// daemon is one running imprintd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	wait chan struct{} // closed once the child is reaped
}

// buildImprintd compiles cmd/imprintd into dir.
func buildImprintd(dir string) (string, error) {
	bin := filepath.Join(dir, "imprintd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/imprintd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building imprintd: %w\n%s", err, out)
	}
	return bin, nil
}

// freeAddr picks a loopback port nobody is listening on. imprintd logs
// its -addr flag rather than the bound port, so the bench chooses.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon spawns imprintd on image and waits for /healthz to answer
// 200; the returned duration is spawn to first 200 — image load and
// checksum verification, plus WAL replay when args carry -wal. The
// child's stderr is appended to logPath.
func startDaemon(bin, image, logPath string, args ...string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	args = append([]string{"-load", image, "-addr", addr, "-parallelism", "1"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// Should this process die without reaping (a driver's SIGKILL), the
	// kernel takes the child down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	exited := make(chan struct{})
	go func() {
		_ = cmd.Wait() // the exit status of a child we kill carries nothing
		close(exited)
	}()
	d := &daemon{cmd: cmd, addr: addr, log: logf, wait: exited}
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for time.Since(start) < 60*time.Second {
		select {
		case <-exited:
			logf.Close()
			return nil, 0, fmt.Errorf("imprintd exited during start-up; see %s", logPath)
		default:
		}
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, 0, fmt.Errorf("imprintd not ready after 60s; see %s", logPath)
}

// kill sends SIGKILL and reaps the child.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already-exited is fine: wait below reaps either way
	<-d.wait
	d.log.Close()
}

// stats fetches GET /stats.
func (d *daemon) stats() (server.ServerStats, error) {
	var st server.ServerStats
	resp, err := http.Get("http://" + d.addr + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /stats: %w", err)
	}
	return st, nil
}

// cpu returns the child's consumed CPU time (user+system) from
// /proc/<pid>/stat.
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks (100/s on Linux).
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// peakRSSMB returns the child's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// selfCPU returns this process's consumed CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ---- one keep-alive connection ----

// conn is one client: a single keep-alive TCP connection speaking
// HTTP/1.1 without net/http's client machinery (two goroutines and a
// channel hop per request), so on a 2-core box the generator takes as
// little from imprintd as it can. Requests are rendered to bytes ahead
// of time; on the clock it only writes them and reads the reply.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer // the last reply's body
}

// wire renders a POST to path as raw HTTP/1.1 request bytes.
func wire(addr, path string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, addr, len(body))
	return append([]byte(head), body...)
}

// do sends one pre-rendered request and reads the whole reply into
// c.body. A transport error drops the connection; the next call redials.
func (c *conn) do(raw []byte) (status int, err error) {
	if c.c == nil {
		if c.c, err = net.Dial("tcp", c.addr); err != nil {
			return 0, err
		}
		c.br = bufio.NewReaderSize(c.c, 64<<10)
	}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if _, err = c.c.Write(raw); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		c.close()
	}
	return resp.StatusCode, err
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// ---- closed-loop clients ----

// kept is one sampled reply, checked after the clock stops.
type kept struct {
	req  request
	body []byte
	sent int // insert batches sent when the reply arrived (mixed-ingest)
}

// clientResult is what one client measured in the measured phase.
type clientResult struct {
	lat       []time.Duration // latency of every 200 reply
	attempted int
	failed    int // non-200 and transport errors
	firstErr  string
	kept      []kept
	end       time.Time
}

const (
	keepEvery = 50  // 1 reply in keepEvery is kept for the oracle
	keepMax   = 128 // per client: brute force is a full pass per reply
)

// phase is a warm-up followed by a measured window, shared by clients.
type phase struct {
	measureFrom, until time.Time
}

// wireAll renders a request stream for addr.
func wireAll(addr string, reqs []request) [][]byte {
	raws := make([][]byte, len(reqs))
	for i, r := range reqs {
		raws[i] = wire(addr, "/query", r.body)
	}
	return raws
}

// runReader is a closed-loop query client: next request only after the
// previous reply is fully read. raws is reqs rendered by wireAll; sent,
// when non-nil, is the writer's batch counter.
func runReader(addr string, reqs []request, raws [][]byte, ph phase, sent *atomic.Int64) clientResult {
	var res clientResult
	c := &conn{addr: addr}
	defer c.close()
	for i := 0; ; i++ {
		start := time.Now()
		if !start.Before(ph.until) {
			break
		}
		status, err := c.do(raws[i%len(raws)])
		end := time.Now()
		if start.Before(ph.measureFrom) {
			continue
		}
		res.attempted++
		res.end = end
		if err != nil || status != http.StatusOK {
			res.failed++
			if res.firstErr == "" {
				res.firstErr = fmt.Sprintf("status %d err %v body %.200s", status, err, c.body.Bytes())
			}
			continue
		}
		res.lat = append(res.lat, end.Sub(start))
		if res.attempted%keepEvery == 0 && len(res.kept) < keepMax {
			k := kept{req: reqs[i%len(reqs)], body: append([]byte(nil), c.body.Bytes()...)}
			if sent != nil {
				k.sent = int(sent.Load())
			}
			res.kept = append(res.kept, k)
		}
	}
	return res
}

// writerResult is what the insert client measured.
type writerResult struct {
	clientResult
	ackedTotal    int // batches acknowledged since start (warm-up included)
	ackedMeasured int // batches acknowledged in the measured window
}

// insertWires renders the insert pool for addr.
func insertWires(addr string, ds *dataset) [][]byte {
	raws := make([][]byte, poolBatches)
	for i := range raws {
		raws[i] = wire(addr, "/insert", ds.insertBody(i))
	}
	return raws
}

// runWriter posts pool batches back to back; sent counts batches
// handed to the socket, so a reader can bound what it may have seen.
func runWriter(addr string, raws [][]byte, ph phase, sent *atomic.Int64) writerResult {
	var res writerResult
	c := &conn{addr: addr}
	defer c.close()
	for i := 0; ; i++ {
		start := time.Now()
		if !start.Before(ph.until) {
			break
		}
		sent.Add(1)
		status, err := c.do(raws[i%len(raws)])
		end := time.Now()
		ok := err == nil && status == http.StatusOK
		if !ok {
			// An unacknowledged batch may or may not be in the log; stop,
			// so the sent counter stays an exact bound.
			res.attempted++
			res.failed++
			res.firstErr = fmt.Sprintf("insert: status %d err %v body %.200s", status, err, c.body.Bytes())
			res.end = end
			break
		}
		res.ackedTotal++
		if start.Before(ph.measureFrom) {
			continue
		}
		res.attempted++
		res.ackedMeasured++
		res.lat = append(res.lat, end.Sub(start))
		res.end = end
	}
	return res
}

// runClients runs the workload's two clients through one warm-up and
// one measured window. Streams and wire bytes are made before the
// clock starts.
func runClients(w *workload, ds *dataset, addr string, warm, measure time.Duration) ([]clientResult, *writerResult, phase) {
	readers := 2
	if w.ingest {
		readers = 1
	}
	reqs := make([][]request, readers)
	raws := make([][][]byte, readers)
	for c := range reqs {
		reqs[c] = w.stream(ds, c, streamLen)
		raws[c] = wireAll(addr, reqs[c])
	}
	var inserts [][]byte
	var sent *atomic.Int64
	if w.ingest {
		inserts = insertWires(addr, ds)
		sent = new(atomic.Int64)
	}

	// This process holds the whole relation for the oracle; a collection
	// of that heap mid-run would take a core from imprintd for its
	// duration and land in the p99. The clients allocate little, so the
	// collector simply stays off while they run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	now := time.Now()
	ph := phase{measureFrom: now.Add(warm), until: now.Add(warm + measure)}
	res := make([]clientResult, readers)
	var wr *writerResult
	var wg sync.WaitGroup
	for c := range res {
		wg.Add(1)
		go func() { defer wg.Done(); res[c] = runReader(addr, reqs[c], raws[c], ph, sent) }()
	}
	if w.ingest {
		wr = new(writerResult)
		wg.Add(1)
		go func() { defer wg.Done(); *wr = runWriter(addr, inserts, ph, sent) }()
	}
	wg.Wait()
	return res, wr, ph
}
