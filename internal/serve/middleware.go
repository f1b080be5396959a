package serve

import (
	"context"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/wire"
)

// statusWriter records the status code and byte count a handler wrote, for
// metrics and access logging, and whether the header was sent at all (so
// the panic recovery middleware knows if a 500 can still be written).
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// wrap applies the per-route middleware stack to a handler: in-flight
// gauge, per-request context deadline, panic
// recovery (500 + JSON error instead of a dropped connection), latency and
// status-code metrics, and a structured access log line.
func (s *Server) wrap(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inFlight, latency := s.metrics.inFlight.With(route), s.metrics.latency.With(route)
		inFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)

		func() {
			defer func() {
				if p := recover(); p != nil {
					s.metrics.panics.Inc()
					s.cfg.Logger.Printf("kgserve: panic on %s: %v\n%s", route, p, debug.Stack())
					if !sw.wrote {
						wire.WriteError(sw, http.StatusInternalServerError, "internal error")
					}
				}
			}()
			h(sw, r)
		}()

		d := time.Since(start)
		inFlight.Add(-1)
		s.metrics.requests.With(route, strconv.Itoa(sw.code)).Inc()
		latency.Observe(d.Seconds())
		s.cfg.Logger.Printf("kgserve: %s %s %d %dB %s %s", r.Method, r.URL.Path, sw.code, sw.bytes, d.Round(time.Microsecond), r.RemoteAddr)
	})
}
