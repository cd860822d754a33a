package netbus

import (
	"dlsbl/internal/bus"
	"dlsbl/internal/sig"
)

// Exports for the external netbus_test package: docs/WIRE.md's v4
// golden frame is pinned against the batch codec, and its v3 golden is
// decoded with the multi-frame decoder nodes keep for v3 drivers.
var DecodeMsgMultiBody = decodeMsgMultiBody

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

// appendMsgMultiFrame frames one message for several mailboxes of one
// node (FtMsgMulti) in wire version 3, as a v3 driver did. The driver
// sends FtMsgBatch now; the tests use this encoder to check that nodes
// still file v3 frames and that their decoding is a fixpoint.
func appendMsgMultiFrame(dst []byte, flags byte, nonce uint64, node string, dests []string, m bus.Message, round, epoch string, origin uint64) []byte {
	start := len(dst)
	dst = appendHeader(dst, versionNode, FtMsgMulti, flags, nonce, node, round, epoch, origin)
	dst = sig.AppendUvarint(dst, uint64(len(dests)))
	for _, d := range dests {
		dst = sig.AppendString(dst, d)
	}
	dst = appendMessage(dst, m)
	return finishFrame(dst, start)
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
