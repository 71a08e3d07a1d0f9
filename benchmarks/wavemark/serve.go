package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"wavetile/internal/obs"
	"wavetile/internal/serve"
	"wavetile/wavesim"
)

// decodeEvery is how often a client JSON-decodes a job's records to verify
// them; the other jobs only count bytes and lines, so that the load
// generator does not take the cores it measures.
const decodeEvery = 16

// serveRun is how one closed-loop round drives the service.
type serveRun struct {
	specs   [][]byte // job bodies, one per job of the round
	runners int
	clients int
	// ckptDir, when set, is a fresh directory the server persists jobs and
	// checkpoints under, every everyTiles time tiles.
	ckptDir    string
	everyTiles int
	// refs holds, for each job a client decodes, the records a direct
	// wavesim.RunSurvey of its spec produced, indexed by shot.
	refs map[int][][][]float32

	rec    *recorder // nil untraced: no spans, no BeforeJob hook, no registry
	parent spanID
}

// jobTiming is one job as its client saw it, timed from the POST.
type jobTiming struct {
	accepted time.Duration // POST sent → 202 read
	first    time.Duration // POST sent → first NDJSON record line read
	done     time.Duration // POST sent → NDJSON trailer read
	queue    time.Duration // POST sent → runner picked the job up (traced only)
	compute  time.Duration // the job's shots inside the propagator, as its records report
	bytes    int64         // NDJSON bytes streamed
}

// roundStats is what one round measured.
type roundStats struct {
	wall       time.Duration
	jobs       []jobTiming // completed jobs
	attempted  int
	failures   []string
	rejected   int
	ckptWrites int64
	ckptBytes  int64
	// record0 is job 0's decoded records, for the run's record hash.
	record0 [][][]float32
}

// clientView adds what the callers of the round saw to s, under prefix:
// rates over the round's wall, latencies over its completed jobs.
func (st *roundStats) clientView(s samples, prefix string, shotsPerJob int) {
	var first, done []float64
	for _, j := range st.jobs {
		first = append(first, j.first.Seconds())
		done = append(done, j.done.Seconds())
	}
	n := float64(len(st.jobs))
	s.add(prefix+"jobs_per_s", n/st.wall.Seconds())
	s.add(prefix+"shots_per_s", n*float64(shotsPerJob)/st.wall.Seconds())
	s.add(prefix+"job_p50_s", median(done))
	s.add(prefix+"job_p90_s", percentile(done, 0.9))
	s.add(prefix+"first_record_p50_s", median(first))
}

// serveShape resolves the runner and client counts of a serve workload:
// the worker count unless the table fixes them, and never more clients —
// each holds one connection — than workers.
func serveShape(w workload) (runners, clients int) {
	runners, clients = w.Runners, w.Clients
	if runners == 0 {
		runners = workers()
	}
	if clients == 0 || clients > workers() {
		clients = workers()
	}
	return runners, clients
}

// directRecords is the verification oracle: the spec lowered by the
// service's own Build and run through wavesim.RunSurvey with no HTTP, queue,
// streaming or checkpointing in the way.
func directRecords(spec []byte) ([][][]float32, error) {
	js, err := serve.DecodeJobSpec(bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	built, err := js.Build(serve.Limits{})
	if err != nil {
		return nil, err
	}
	_, sched, err := built.NewSurvey() // resolves the schedule defaults the service applies
	if err != nil {
		return nil, err
	}
	res, err := wavesim.RunSurvey(built.Base, built.Shots, sched, wavesim.SurveyOptions{Concurrency: 1})
	if err != nil {
		return nil, err
	}
	out := make([][][]float32, len(res.Shots))
	for i, r := range res.Shots {
		out[i] = r.Receivers
	}
	return out, nil
}

// startServer brings the service up on a real loopback listener.
func (sr *serveRun) startServer(hook func(*serve.Job)) (*serve.Server, *httptest.Server, *obs.Registry) {
	cfg := serve.Config{Runners: sr.runners, CheckpointDir: sr.ckptDir, CheckpointEveryTiles: sr.everyTiles, BeforeJob: hook}
	var reg *obs.Registry
	if sr.rec != nil {
		reg = obs.NewRegistry()
		cfg.Registry = reg
	}
	srv := serve.New(cfg)
	return srv, httptest.NewServer(srv.Handler()), reg
}

// newClient returns an HTTP client that holds exactly one connection.
func newClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &http.Client{Transport: tr}, tr
}

// streamScan consumes an NDJSON results stream chunk by chunk: it counts
// bytes and lines, notes when the first record line is complete and keeps
// the trailer, without holding the records unless keep is set.
type streamScan struct {
	keep    bool
	full    []byte
	bytes   int64
	records int
	compute time.Duration // sum of the record lines' elapsed_ns
	firstAt time.Time
	head    []byte // start of the line being read, enough to classify it
	trailer []byte
}

const headCap = 4096

func (s *streamScan) feed(chunk []byte) {
	s.bytes += int64(len(chunk))
	if s.keep {
		s.full = append(s.full, chunk...)
	}
	for len(chunk) > 0 {
		i := bytes.IndexByte(chunk, '\n')
		part := chunk
		if i >= 0 {
			part = chunk[:i]
		}
		if room := headCap - len(s.head); room > 0 {
			s.head = append(s.head, part[:min(room, len(part))]...)
		}
		if i < 0 {
			return
		}
		if bytes.HasPrefix(s.head, []byte(`{"shot":`)) {
			if s.records == 0 {
				s.firstAt = time.Now()
			}
			s.records++
			s.compute += elapsedNS(s.head)
		} else {
			s.trailer = append(s.trailer[:0], s.head...)
		}
		s.head = s.head[:0]
		chunk = chunk[i+1:]
	}
}

// elapsedNS reads the elapsed_ns field from the start of a record line.
func elapsedNS(head []byte) time.Duration {
	_, rest, ok := bytes.Cut(head, []byte(`"elapsed_ns":`))
	if !ok {
		return 0
	}
	var ns int64
	for _, c := range rest {
		if c < '0' || c > '9' {
			break
		}
		ns = ns*10 + int64(c-'0')
	}
	return time.Duration(ns)
}

// submit POSTs one job and returns its id; a refused submit is an error
// whose status the caller inspects.
func submit(c *http.Client, url string, spec []byte) (id string, status int, err error) {
	resp, err := c.Post(url+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode, fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return "", resp.StatusCode, err
	}
	return out.ID, resp.StatusCode, nil
}

// stream reads a job's results to the trailer.
func stream(c *http.Client, url, id string, buf []byte, scan *streamScan) error {
	resp, err := c.Get(url + "/v1/jobs/" + id + "/results")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("results: status %d", resp.StatusCode)
	}
	for {
		n, err := resp.Body.Read(buf)
		scan.feed(buf[:n])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// checkStream verifies a finished stream: a done trailer, one record per
// shot, and — when the records were kept — bitwise equality with want.
func checkStream(scan *streamScan, shots int, want [][][]float32) ([][][]float32, error) {
	var trailer struct {
		Done  bool   `json:"done"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(scan.trailer, &trailer); err != nil {
		return nil, fmt.Errorf("short stream: no trailer after %d records (%v)", scan.records, err)
	}
	if !trailer.Done || trailer.State != string(serve.StateDone) {
		return nil, fmt.Errorf("job ended %q: %s", trailer.State, trailer.Error)
	}
	if scan.records != shots {
		return nil, fmt.Errorf("%d records for %d shots", scan.records, shots)
	}
	if !scan.keep {
		return nil, nil
	}
	got := make([][][]float32, shots)
	for _, line := range bytes.Split(bytes.TrimSpace(scan.full), []byte{'\n'})[:shots] {
		var rec serve.ShotRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("record line: %v", err)
		}
		if rec.Shot < 0 || rec.Shot >= shots || got[rec.Shot] != nil {
			return nil, fmt.Errorf("unexpected record for shot %d", rec.Shot)
		}
		got[rec.Shot] = rec.Receivers
	}
	for s := range got {
		if err := checkRecord(got[s]); err != nil {
			return nil, fmt.Errorf("shot %d: %v", s, err)
		}
		if want != nil && !sameRecord(got[s], want[s]) {
			return nil, fmt.Errorf("shot %d: record differs from a direct wavesim.RunSurvey", s)
		}
	}
	return got, nil
}

// round runs one closed-loop pass: a fresh server, sr.clients clients that
// each submit a job, stream its results to the trailer and only then take
// the next, until every job of the round is done.
func (sr *serveRun) round(shots int) (*roundStats, error) {
	var mu sync.Mutex
	started := map[string]time.Time{}
	var hook func(*serve.Job)
	if sr.rec != nil {
		hook = func(j *serve.Job) {
			now := time.Now()
			mu.Lock()
			started[j.ID] = now
			mu.Unlock()
		}
	}
	srv, ts, reg := sr.startServer(hook)
	defer srv.Close()
	defer ts.Close()

	st := &roundStats{attempted: len(sr.specs)}
	type sentJob struct {
		id   string
		sent time.Time
		span spanID
		at   int // index into st.jobs
		idx  int
	}
	var sentJobs []sentJob
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < sr.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, tr := newClient()
			defer tr.CloseIdleConnections()
			buf := make([]byte, 64<<10)
			for {
				idx := int(next.Add(1)) - 1
				if idx >= len(sr.specs) {
					return
				}
				jobSpan := sr.rec.begin(sr.parent, "wavemark", fmt.Sprintf("job %d", idx), idx)
				sent := time.Now()
				s := sr.rec.begin(jobSpan, "serve", "POST /v1/jobs", idx)
				id, status, err := submit(client, ts.URL, sr.specs[idx])
				sr.rec.end(s)
				accepted := time.Since(sent)
				scan := &streamScan{keep: idx%decodeEvery == 0}
				if err == nil {
					s = sr.rec.begin(jobSpan, "serve", "GET /v1/jobs/{id}/results", idx)
					err = stream(client, ts.URL, id, buf, scan)
					sr.rec.end(s)
				}
				done := time.Since(sent)
				var got [][][]float32
				if err == nil {
					got, err = checkStream(scan, shots, sr.refs[idx])
				}
				sr.rec.end(jobSpan)

				mu.Lock()
				switch {
				case status == http.StatusTooManyRequests:
					st.rejected++
					st.failures = append(st.failures, fmt.Sprintf("job %d: refused (429)", idx))
				case err != nil:
					st.failures = append(st.failures, fmt.Sprintf("job %d: %v", idx, err))
				default:
					st.jobs = append(st.jobs, jobTiming{accepted: accepted, first: scan.firstAt.Sub(sent), done: done, compute: scan.compute, bytes: scan.bytes})
					sentJobs = append(sentJobs, sentJob{id: id, sent: sent, span: jobSpan, at: len(st.jobs) - 1, idx: idx})
					if idx == 0 {
						st.record0 = got
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(t0)

	for _, j := range sentJobs {
		if at, ok := started[j.id]; ok {
			st.jobs[j.at].queue = at.Sub(j.sent)
			sr.rec.add(j.span, "serve", "queued", j.idx, j.sent, at)
		}
	}
	if reg != nil {
		st.ckptWrites = reg.Counter(serve.MetricCheckpointWrites).Load()
		st.ckptBytes = reg.Counter(serve.MetricCheckpointBytes).Load()
		st.rejected = max(st.rejected, int(reg.Counter(serve.MetricAdmissionRejected).Load()))
	}
	return st, nil
}

// firstRecord measures the service's set-up: serve.New, a listener, Resume,
// and one job submitted and streamed up to its first record.
func (sr *serveRun) firstRecord() (time.Duration, error) {
	t0 := time.Now()
	srv, ts, _ := sr.startServer(nil)
	defer srv.Close()
	defer ts.Close()
	if _, err := srv.Resume(); err != nil {
		return 0, err
	}
	client, tr := newClient()
	defer tr.CloseIdleConnections()
	id, _, err := submit(client, ts.URL, sr.specs[0])
	if err != nil {
		return 0, err
	}
	scan := &streamScan{}
	resp, err := client.Get(ts.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		scan.feed(buf[:n])
		if scan.records > 0 {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("stream ended before the first record: %v", err)
		}
	}
	return scan.firstAt.Sub(t0), nil
}

// newServeRun prepares the rounds of a serve workload: counts, and the
// direct-run references of the jobs the clients will decode. The direct
// runs double as the warm-up.
func newServeRun(e *env) (*serveRun, error) {
	runners, clients := serveShape(e.w)
	sr := &serveRun{runners: runners, clients: clients, refs: map[int][][][]float32{}, rec: e.rec}
	for _, s := range e.in.Specs {
		sr.specs = append(sr.specs, s)
	}
	if e.rec != nil {
		// The traced pass needs three rounds of a workload, so a round there
		// is half the jobs, but not fewer than a 90th percentile needs.
		n := max(2, len(sr.specs)/2)
		if len(sr.specs) >= minP90Jobs {
			n = max(n, minP90Jobs)
		}
		sr.specs = sr.specs[:n]
	}
	for i := 0; i < len(sr.specs); i += decodeEvery {
		recs, err := directRecords(sr.specs[i])
		if err != nil {
			return nil, err
		}
		sr.refs[i] = recs
	}
	return sr, nil
}

// withCkptDir runs f with a fresh checkpoint directory when the workload
// checkpoints, and removes it afterwards.
func (sr *serveRun) withCkptDir(e *env, f func() error) error {
	if e.w.CkptEveryTiles == 0 {
		return f()
	}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.tmp, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sr.ckptDir, sr.everyTiles = dir, e.w.CkptEveryTiles
	defer func() { sr.ckptDir, sr.everyTiles = "", 0 }()
	return f()
}

// absorb folds a round's verification outcome into the result.
func (r *result) absorb(st *roundStats) {
	r.attempted += st.attempted
	for _, f := range st.failures {
		r.fail("%s", f)
	}
}

// runServe measures a serve workload end to end: several set-ups to the
// first record (setup_s), then closed-loop rounds, each against a fresh
// server, until -seconds have been measured. Every round is one sample of
// wall_s, gpts and of what its callers saw (clientView).
func runServe(e *env) (*result, error) {
	res := newResult()
	sr, err := newServeRun(e)
	if err != nil {
		return nil, err
	}
	err = res.setups(func() (d time.Duration, err error) {
		err = sr.withCkptDir(e, func() (err error) {
			d, err = sr.firstRecord()
			return err
		})
		return d, err
	})
	if err != nil {
		return nil, err
	}
	p := e.w.Problem
	work := float64(p.points()) * float64(p.Steps) * float64(e.w.Shots) * float64(len(sr.specs))
	err = e.timed(func(i int) error {
		return sr.withCkptDir(e, func() error {
			st, err := sr.round(e.w.Shots)
			if err != nil {
				return err
			}
			res.absorb(st)
			if st.record0 != nil {
				res.recordFNV = fnvRecord(st.record0...)
			}
			res.samples.add("wall_s", st.wall.Seconds())
			res.samples.add("gpts", work/st.wall.Seconds()/1e9)
			st.clientView(res.samples, "", e.w.Shots)
			e.logf("  round %d: %d jobs in %.4fs, %.1f jobs/s, %d failed", i, len(st.jobs), st.wall.Seconds(),
				float64(len(st.jobs))/st.wall.Seconds(), len(st.failures))
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return res, res.finish()
}
