package obs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"
)

// Var is anything that renders itself as a JSON string — the same shape
// expvar.Var uses, redeclared here so the package stays dependency-free.
// *Registry, *trace.Recorder and *tsc.Health all satisfy it.
type Var interface {
	String() string
}

// Live adapts a getter to a Var that re-resolves on every use, for
// registrations whose backing value is swapped at runtime (a benchmark
// re-pointing its registry per arm). The returned Var forwards the
// PromVar and http.Handler capabilities of whatever the getter
// currently returns, so capability dispatch in Serve stays live too.
// The getter may return nil (or a nil typed pointer — every obs/trace/
// tsc method is nil-safe); the adapter then renders "null" / nothing.
func Live(get func() Var) Var { return liveVar{get} }

type liveVar struct{ get func() Var }

func (l liveVar) String() string {
	if v := l.get(); v != nil {
		return v.String()
	}
	return "null"
}

// WriteProm forwards to the current value when it speaks the text
// exposition format; otherwise writes nothing.
func (l liveVar) WriteProm(w io.Writer) {
	if pv, ok := l.get().(PromVar); ok {
		pv.WriteProm(w)
	}
}

// ServeHTTP delegates to the current value's handler when it has one,
// else falls back to the JSON rendering.
func (l liveVar) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	v := l.get()
	if h, ok := v.(http.Handler); ok {
		h.ServeHTTP(w, req)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if v == nil {
		fmt.Fprintln(w, "null")
		return
	}
	fmt.Fprintln(w, v.String())
}

// Server is a live stats endpoint started by Serve.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the address the server is listening on (useful with
// ":0", where the OS picks the port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// closeGrace bounds how long Close waits for in-flight scrapes. A
// scrape renders a few KB of JSON; a second of grace is generous, and
// the bound keeps a wedged client from hanging benchmark shutdown.
const closeGrace = time.Second

// Close shuts the server down, letting in-flight scrapes finish: a
// bench that stops its endpoint mid-scrape used to hand the collector
// a truncated JSON body. After the grace period any remaining
// connections are torn down hard.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

// bufferedResponse captures a handler's full output before any byte
// reaches the wire, so a panic mid-render can be converted into a clean
// HTTP 500 instead of a truncated body with a 200 status already sent.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newBufferedResponse() *bufferedResponse {
	return &bufferedResponse{header: make(http.Header), status: http.StatusOK}
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(status int) { b.status = status }

func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

// flush copies the buffered response onto the real writer.
func (b *bufferedResponse) flush(w http.ResponseWriter) {
	h := w.Header()
	for k, vs := range b.header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	w.WriteHeader(b.status)
	w.Write(b.body.Bytes())
}

// protect wraps a handler with buffering + recover: a Var whose
// String()/WriteProm panics yields a 500 with the panic message rather
// than half an object. The buffer also means slow clients never observe
// a partially-rendered scrape.
func protect(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		buf := newBufferedResponse()
		func() {
			defer func() {
				if r := recover(); r != nil {
					buf = newBufferedResponse()
					buf.header.Set("Content-Type", "text/plain; charset=utf-8")
					buf.status = http.StatusInternalServerError
					fmt.Fprintf(buf, "internal error: %v\n", r)
				}
			}()
			h(buf, req)
		}()
		buf.flush(w)
	}
}

// Serve starts an opt-in HTTP stats endpoint on addr and returns
// immediately. Routes:
//
//	/metrics       every registered var in one expvar-compatible JSON
//	               object
//	/metrics.prom  Prometheus text exposition 0.0.4 of every var that
//	               implements PromVar
//	/<name>        one var by its registration name — JSON, unless the
//	               var implements http.Handler (the flight recorder's
//	               ?format=chrome), which then handles the request itself
//
// Unknown paths get a 404 listing the registered routes. Every handler
// renders into a buffer first: a panicking Var yields a clean HTTP 500
// instead of a truncated 200 body.
//
// Conventional names used by the benchmark drivers: "metrics" (the
// *Registry), "trace" (the flight recorder) and "tschealth" (the TSC
// health monitor), so /trace and /tschealth work as documented in the
// README.
func Serve(addr string, vars map[string]Var) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names)

	routes := []string{"/metrics", "/metrics.prom"}
	for _, name := range names {
		if name != "metrics" {
			routes = append(routes, "/"+name)
		}
	}
	sort.Strings(routes)

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", protect(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n")
		for i, name := range names {
			if i > 0 {
				fmt.Fprintf(w, ",\n")
			}
			fmt.Fprintf(w, "%q: %s", name, vars[name].String())
		}
		fmt.Fprintf(w, "\n}\n")
	}))
	mux.HandleFunc("/metrics.prom", protect(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, name := range names {
			if pv, ok := vars[name].(PromVar); ok {
				pv.WriteProm(w)
			}
		}
	}))
	for name, v := range vars {
		if name == "metrics" {
			// The aggregate route already serves this name; a registry
			// registered as "metrics" appears there (and in the text
			// exposition).
			continue
		}
		v := v
		mux.HandleFunc("/"+name, protect(func(w http.ResponseWriter, req *http.Request) {
			if h, ok := v.(http.Handler); ok {
				h.ServeHTTP(w, req)
				return
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			fmt.Fprintln(w, v.String())
		}))
	}
	mux.HandleFunc("/", protect(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintf(w, "404 no route %q; registered routes:\n", req.URL.Path)
		for _, r := range routes {
			fmt.Fprintf(w, "  %s\n", r)
		}
	}))

	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go s.srv.Serve(ln)
	return s, nil
}
