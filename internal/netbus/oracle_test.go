package netbus

// The allocating decoders the tests read frames with: each destination
// and every drained copy decoded afresh, into fresh slices. The node
// spells hosted destinations with its mailboxes' keys, and the driver
// decodes a node-drain reply through drainReply, whose output
// TestDrainSharesOnlyIdenticalCopies and FuzzWireFrame hold against
// decodeDrainNodeRspBody.

// spell names a destination by a fresh string.
func spell(b []byte) string { return string(b) }

// decodeMsgBatchBody parses an FtMsgBatch body into its entries.
func decodeMsgBatchBody(body []byte) ([]msgEntry, error) {
	entries, _, err := decodeEntries(body, nil, nil, spell)
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// decodeDrainNodeRspBody parses an FtDrainNodeRsp body entry by entry
// into runs of consecutive entries for the same endpoint, so that
// re-encoding the runs reproduces the body byte for byte.
func decodeDrainNodeRspBody(body []byte) ([]drainPart, error) {
	r := wireReader{buf: body}
	n := r.count("node drain batch", 8) // endpoint, seq and a message of ≥ 6 fields
	var parts []drainPart
	for i := uint64(0); i < n && r.err == nil; i++ {
		ep := r.str()
		seq := r.uvarint()
		m := r.readMessage()
		if len(parts) == 0 || parts[len(parts)-1].endpoint != ep {
			parts = append(parts, drainPart{endpoint: ep})
		}
		last := &parts[len(parts)-1]
		last.batch = append(last.batch, SeqMsg{Seq: seq, Msg: m})
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return parts, nil
}
