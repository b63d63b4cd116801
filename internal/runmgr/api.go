package runmgr

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"parmonc/internal/stat"
)

// JSONFloat marshals like a float64 except that the IEEE specials —
// which encoding/json refuses outright — become strings: "+Inf",
// "-Inf", "NaN". The relative error of a zero-mean estimate is +Inf by
// definition (see stat.Report), so run reports must survive it.
type JSONFloat float64

func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 1) {
		return []byte(`"+Inf"`), nil
	}
	if math.IsInf(v, -1) {
		return []byte(`"-Inf"`), nil
	}
	if math.IsNaN(v) {
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	var v float64
	if err := json.Unmarshal(b, &v); err == nil {
		*f = JSONFloat(v)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "+Inf", "Inf":
		*f = JSONFloat(math.Inf(1))
	case "-Inf":
		*f = JSONFloat(math.Inf(-1))
	case "NaN":
		*f = JSONFloat(math.NaN())
	default:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("runmgr: invalid float %q", s)
		}
		*f = JSONFloat(v)
	}
	return nil
}

func jsonFloats(xs []float64) []JSONFloat {
	out := make([]JSONFloat, len(xs))
	for i, x := range xs {
		out[i] = JSONFloat(x)
	}
	return out
}

// LeaseCounters is the scheduling view of one run.
type LeaseCounters struct {
	Total       int   `json:"total"`       // leases in the partition
	Granted     int64 `json:"granted"`     // grants ever made (incl. reissues)
	Outstanding int   `json:"outstanding"` // granted, incomplete
	Pending     int   `json:"pending"`     // waiting to be granted
	Completed   int64 `json:"completed"`   // fully merged
	Reissued    int64 `json:"reissued"`    // requeued after detach/nack/timeout
	Nacks       int64 `json:"nacks"`       // workers that could not serve the run
}

// RunStatus is the JSON view of one run: GET /runs/{id}, the elements
// of GET /runs, and the body returned by POST /runs and DELETE.
type RunStatus struct {
	ID          string          `json:"id"`
	State       State           `json:"state"`
	Error       string          `json:"error,omitempty"`
	Workload    string          `json:"workload"`
	Fingerprint string          `json:"fingerprint"`
	Scenario    json.RawMessage `json:"scenario"`
	SeqNum      uint64          `json:"seqnum"`
	MaxSamples  int64           `json:"maxsv"`
	PassEvery   int64           `json:"pass_every"`
	LeaseSize   int64           `json:"lease_size"`

	N         int64         `json:"n"`
	MaxRelErr JSONFloat     `json:"max_rel_err_pct"`
	Leases    LeaseCounters `json:"leases"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// ReportPayload is GET /runs/{id}/report: the final averaged
// statistics of a terminal run, Inf-safe for JSON.
type ReportPayload struct {
	ID          string      `json:"id"`
	State       State       `json:"state"`
	Workload    string      `json:"workload"`
	Fingerprint string      `json:"fingerprint"`
	Nrow        int         `json:"nrow"`
	Ncol        int         `json:"ncol"`
	N           int64       `json:"n"`
	Mean        []JSONFloat `json:"mean"`
	Var         []JSONFloat `json:"var"`
	AbsErr      []JSONFloat `json:"abs_err"`
	RelErr      []JSONFloat `json:"rel_err_pct"`
	MaxAbsErr   JSONFloat   `json:"max_abs_err"`
	MaxRelErr   JSONFloat   `json:"max_rel_err_pct"`
	MaxVar      JSONFloat   `json:"max_var"`
	Gamma       float64     `json:"gamma"`
	MeanSimTime int64       `json:"mean_sim_time_ns"`
}

func reportPayload(id string, state State, workloadN, fp string, rep stat.Report) ReportPayload {
	return ReportPayload{
		ID:          id,
		State:       state,
		Workload:    workloadN,
		Fingerprint: fp,
		Nrow:        rep.Nrow,
		Ncol:        rep.Ncol,
		N:           rep.N,
		Mean:        jsonFloats(rep.Mean),
		Var:         jsonFloats(rep.Var),
		AbsErr:      jsonFloats(rep.AbsErr),
		RelErr:      jsonFloats(rep.RelErr),
		MaxAbsErr:   JSONFloat(rep.MaxAbsErr),
		MaxRelErr:   JSONFloat(rep.MaxRelErr),
		MaxVar:      JSONFloat(rep.MaxVar),
		Gamma:       rep.Gamma,
		MeanSimTime: rep.MeanSimTime.Nanoseconds(),
	}
}

// statusLocked builds r's status snapshot. Caller holds m.mu.
func (m *Manager) statusLocked(r *run) RunStatus {
	st := RunStatus{
		ID:          r.id,
		State:       r.state,
		Error:       r.errMsg,
		Workload:    r.workloadN,
		Fingerprint: r.fingerprint,
		Scenario:    json.RawMessage(r.scenario),
		SeqNum:      r.sub.SeqNum,
		MaxSamples:  r.sub.MaxSamples,
		PassEvery:   r.sub.PassEvery,
		LeaseSize:   r.sub.LeaseSize,
		Leases: LeaseCounters{
			Total:       r.leaseTotal,
			Granted:     r.nGranted,
			Outstanding: len(r.outstanding),
			Pending:     len(r.pending),
			Completed:   r.nCompleted,
			Reissued:    r.nReissued,
			Nacks:       r.nNacks,
		},
		SubmittedAt: r.submitted,
	}
	if !r.started.IsZero() {
		t := r.started
		st.StartedAt = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		st.FinishedAt = &t
	}
	if r.eng != nil {
		p := r.eng.Progress()
		st.N = p.N
		st.MaxRelErr = JSONFloat(p.MaxRelErr)
	} else {
		// A terminal run's final (or, when finalizing failed, last)
		// moments; zero for a run not yet admitted.
		st.N = r.rep.N
		st.MaxRelErr = JSONFloat(r.rep.MaxRelErr)
	}
	return st
}

// Runs returns every run's status, newest submission last.
func (m *Manager) Runs() []RunStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RunStatus, 0, len(m.order))
	for _, r := range m.order {
		out = append(out, m.statusLocked(r))
	}
	return out
}

// Run returns one run's status.
func (m *Manager) Run(id string) (RunStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.runs[id]
	if r == nil {
		return RunStatus{}, ErrNotFound
	}
	return m.statusLocked(r), nil
}

// Report returns the final report of a terminal run that produced one.
func (m *Manager) Report(id string) (ReportPayload, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.runs[id]
	if r == nil {
		return ReportPayload{}, ErrNotFound
	}
	if !r.state.Terminal() || !r.hasReport {
		return ReportPayload{}, ErrNotDone
	}
	return reportPayload(r.id, r.state, r.workloadN, r.fingerprint, r.rep), nil
}

// ServiceStatus is the manager's /statusz contribution.
type ServiceStatus struct {
	Runs     int            `json:"runs"`
	Active   int            `json:"active"`
	Queued   int            `json:"queued"`
	Workers  int            `json:"workers"`
	States   map[string]int `json:"states"`
	Epoch    uint64         `json:"epoch"`
	Recovery RecoveryInfo   `json:"recovery"`
}

// Status summarizes the service for /statusz.
func (m *Manager) Status() ServiceStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := ServiceStatus{
		Runs:     len(m.order),
		Active:   m.active,
		Queued:   len(m.queue),
		Workers:  len(m.workers),
		States:   map[string]int{},
		Epoch:    m.epoch,
		Recovery: m.recInfo,
	}
	for _, r := range m.order {
		st.States[string(r.state)]++
	}
	return st
}

// httpError maps manager errors onto statuses and writes a JSON body.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrTerminal):
		code = http.StatusConflict
	case errors.Is(err, ErrNotDone):
		code = http.StatusConflict
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// methodNotAllowed answers 405 with the route's Allow header and the
// same JSON error envelope every other API error uses — ServeMux's
// built-in method matching would answer in plain text without Allow,
// so the routes below dispatch methods by hand.
func methodNotAllowed(w http.ResponseWriter, r *http.Request, allow string) {
	w.Header().Set("Allow", allow)
	writeJSON(w, http.StatusMethodNotAllowed,
		map[string]string{"error": fmt.Sprintf("runmgr: method %s not allowed (allow: %s)", r.Method, allow)})
}

// Handler returns the run-control API:
//
//	POST   /runs             submit a Submission        → 202 RunStatus
//	GET    /runs             list runs                  → 200 {"runs": [...]}
//	GET    /runs/{id}        one run's status           → 200 RunStatus
//	GET    /runs/{id}/report final report               → 200 ReportPayload
//	DELETE /runs/{id}        cancel                     → 200 RunStatus
//
// Mount it on the ops server via obs.ServerConfig.Routes so one
// listener serves /metrics, /statusz and the control plane.
//
// Every error — wrong method (405 + Allow), unknown path (404), bad
// body, manager rejection — is the same JSON envelope:
// {"error": "..."}. While startup recovery is replaying, every route
// answers 503 with a Retry-After header; submission bodies are capped
// at 1 MiB (413).
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			m.handleSubmit(w, r)
		case http.MethodGet, http.MethodHead:
			runs := m.Runs()
			sort.SliceStable(runs, func(i, j int) bool { return runs[i].ID < runs[j].ID })
			writeJSON(w, http.StatusOK, map[string]any{"runs": runs})
		default:
			methodNotAllowed(w, r, "GET, HEAD, POST")
		}
	})
	mux.HandleFunc("/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			st, err := m.Run(r.PathValue("id"))
			if err != nil {
				httpError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, st)
		case http.MethodDelete:
			st, err := m.Cancel(r.PathValue("id"))
			if err != nil {
				httpError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, st)
		default:
			methodNotAllowed(w, r, "DELETE, GET, HEAD")
		}
	})
	mux.HandleFunc("/runs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			rep, err := m.Report(r.PathValue("id"))
			if err != nil {
				httpError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, rep)
		default:
			methodNotAllowed(w, r, "GET, HEAD")
		}
	})
	// Everything else under this handler is an unknown route; answer in
	// the API's JSON envelope instead of ServeMux's plain-text 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound,
			map[string]string{"error": fmt.Sprintf("runmgr: no such route %s", r.URL.Path)})
	})
	return m.recoveryGate(mux)
}

// handleSubmit decodes and submits POST /runs.
func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmissionBytes)
	var sub Submission
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				map[string]string{"error": fmt.Sprintf("runmgr: submission exceeds %d bytes", tooBig.Limit)})
			return
		}
		httpError(w, fmt.Errorf("runmgr: invalid submission: %w", err))
		return
	}
	st, err := m.Submit(sub)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// maxSubmissionBytes caps POST /runs bodies: a submission is a small
// scenario document, and an unbounded read is a trivial way to wedge
// the coordinator's ops listener.
const maxSubmissionBytes = 1 << 20

// recoveryGate answers 503 with Retry-After while startup recovery is
// still replaying durable state — clients see a retriable condition
// instead of a half-rehydrated registry.
func (m *Manager) recoveryGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if m.recovering.Load() {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]string{"error": "runmgr: service recovery in progress, retry shortly"})
			return
		}
		next.ServeHTTP(w, r)
	})
}
