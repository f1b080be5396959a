// Package wire is the HTTP edge every program here shares, so that a rule
// change is one edit: what a JSON request body may be, how a reply or an
// error is written, how a client posts JSON and reads the reply, and the
// metrics registry whose Prometheus text /metrics serves. kgserve, the
// kgfleet coordinator and worker, kgdiscover -fleet and kgmutate -batch go
// through it.
package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Unmarshal decodes exactly one JSON value from data into v. A field v's
// type lacks is an error that names it, and so is anything but whitespace
// after the value.
func Unmarshal(data []byte, v any) error { return decodeOne(bytes.NewReader(data), v) }

func decodeOne(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return err
		}
		return errors.New("data after the first JSON value")
	}
	return nil
}

// Decode reads r's body, capped at limit bytes, into v under Unmarshal's
// rule. When it cannot, it writes the error reply, 413 for an oversized body
// and 400 naming the fault otherwise, and returns false.
func Decode(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := decodeOne(http.MaxBytesReader(w, r.Body, limit), v)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	} else if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid JSON: %v", err)
	}
	return err == nil
}

// Handle serves a JSON endpoint with h: the request is decoded under
// Decode's rule, capped at limit, and h's reply is written as a 200.
func Handle[Req, Reply any](limit int64, h func(Req) Reply) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if Decode(w, r, limit, &req) {
			WriteJSON(w, http.StatusOK, h(req))
		}
	}
}

// WriteJSON writes v as a JSON reply with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// With the status sent, a failed write has no one left to tell.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteBody writes pre-rendered JSON as a reply, so that a cached body is
// served byte for byte.
func WriteBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // as in WriteJSON
}

// errorBody is the JSON body of every error reply.
type errorBody struct {
	Error string `json:"error"`
}

// WriteError writes {"error": message} as a reply with the given status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorBody{fmt.Sprintf(format, args...)})
}

// Healthz answers {"status":"ok"}.
func Healthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Post sends body as JSON to url and decodes the reply, read up to limit
// bytes, into into. A non-2xx reply is an error carrying its status and the
// message of its error body, if it has one.
func Post(ctx context.Context, client *http.Client, url string, body, into any, limit int64) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e errorBody
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return json.Unmarshal(data, into)
}
