package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mpq/internal/spec"
)

// A response JSON cannot represent (a +Inf cost, which 1e30-cardinality
// queries produce) must not go out as a 200 with an empty body.
func TestWriteJSONUnencodableValue(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, &OptimizeResponse{ID: "r1", Cost: math.Inf(1)})
	if rec.Code == http.StatusOK {
		t.Fatalf("status = %d for an unencodable body", rec.Code)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q is not JSON: %v", rec.Body.String(), err)
	}
	if body.Error == "" {
		t.Fatalf("body %q carries no error", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
}

// The encodable path keeps its status and the encoder's exact bytes.
func TestWriteJSONEncodableValue(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusTeapot, errorBody{Error: "<x>"})
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d, want %d", rec.Code, http.StatusTeapot)
	}
	var want strings.Builder
	if err := json.NewEncoder(&want).Encode(errorBody{Error: "<x>"}); err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != want.String() {
		t.Fatalf("body %q, want %q", rec.Body.String(), want.String())
	}
}

// End to end: a query whose cardinalities overflow float64 optimizes to
// a +Inf cost. /v1/optimize must answer with a JSON error, not a 200
// with no body, and /v1/batch must still emit a line for the job.
func TestHTTPInfiniteCostAnswersWithError(t *testing.T) {
	s := startServer(t, Config{})
	var qs spec.QuerySpec
	for i := 0; i < 12; i++ {
		qs.Tables = append(qs.Tables, spec.TableSpec{Name: fmt.Sprintf("t%d", i), Cardinality: 1e30})
		if i > 0 {
			qs.Predicates = append(qs.Predicates, spec.PredicateSpec{Left: i - 1, Right: i, Selectivity: 1})
		}
	}
	resp, body := mustPost(t, s, OptimizeRequest{Query: qs})
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("status 200 for a +Inf cost, body %q", body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("status %d body %q: want a JSON error (%v)", resp.StatusCode, body, err)
	}

	batch, _ := json.Marshal(BatchRequest{Jobs: []OptimizeRequest{{Query: qs}}})
	bresp, err := http.Post("http://"+s.HTTPAddr()+"/v1/batch", "application/json", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var lines []BatchLine
	sc := bufio.NewScanner(bresp.Body)
	for sc.Scan() {
		var line BatchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if len(lines) != 1 || lines[0].Index != 0 || lines[0].Error == "" {
		t.Fatalf("batch lines %+v, want one error line for job 0", lines)
	}
}
