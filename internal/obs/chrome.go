package obs

import "io"

// Chrome trace-event export. The output is the JSON-object form of the
// Trace Event Format ({"traceEvents": [...]}), loadable directly in
// chrome://tracing and in Perfetto's legacy-trace importer. Phases render
// as complete ("X") slices on a dedicated "protocol" track; per-message
// events render as instant ("i") marks on one track per bus endpoint
// (per-processor, plus the referee), so a faulty round visually shows
// WHERE the drops, retransmissions and dedup hits landed while the phase
// slices show where the time went.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTrace converts one process's records into trace-event form: the
// one-process case of MergeChromeTrace, on the records' own relative
// clock. The records are expected in emission order (Recorder.Records
// returns them so); begin/end pairs become complete slices, unclosed
// begins are closed at the last record's timestamp.
func ChromeTrace(recs []Record) ([]byte, error) {
	return MergeChromeTrace([]ProcessTrace{{Process: "dls-bl-ncp", Records: recs}})
}

// WriteChromeTrace writes the retained records as Chrome trace-event
// JSON. Load the file via chrome://tracing ("Load") or ui.perfetto.dev
// ("Open trace file").
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	data, err := ChromeTrace(r.Records())
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
