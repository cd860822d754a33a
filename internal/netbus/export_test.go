package netbus

import "dlsbl/internal/bus"

// Exports for the external netbus_test package: docs/WIRE.md's golden
// frame is pinned against the batch codec.

// AppendMsgBatchFrame is appendMsgBatchFrame over parallel destination
// and message lists.
func AppendMsgBatchFrame(dst []byte, flags byte, nonce uint64, node string, dests [][]string, msgs []bus.Message, round, epoch string) []byte {
	entries := make([]msgEntry, len(msgs))
	for i := range msgs {
		entries[i] = msgEntry{dests: dests[i], msg: msgs[i]}
	}
	return appendMsgBatchFrame(dst, flags, nonce, node, entries, round, epoch)
}

// DecodeMsgBatchBody is decodeMsgBatchBody into parallel destination and
// message lists.
func DecodeMsgBatchBody(body []byte) (dests [][]string, msgs []bus.Message, err error) {
	entries, err := decodeMsgBatchBody(body)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		dests = append(dests, e.dests)
		msgs = append(msgs, e.msg)
	}
	return dests, msgs, nil
}

// StashedFor returns how many fetched messages the driver holds for the
// endpoint in its drain stash.
func (m *Medium) StashedFor(id string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.stash[id])
}

// BatchEntryLen is the encoded size of one FtMsgBatch entry.
func BatchEntryLen(dests []string, msg bus.Message) int {
	return entryLen(msgEntry{dests: dests, msg: msg})
}

// TelemetryDropped reports how many records the node's capped telemetry
// buffer has evicted.
func (n *Node) TelemetryDropped() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rec.Dropped()
}
