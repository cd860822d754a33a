package netbus

// Exports for the external netbus_test package: docs/WIRE.md's v3
// golden frame is pinned against these unexported codecs.
var (
	AppendMsgMultiFrame = appendMsgMultiFrame
	DecodeMsgMultiBody  = decodeMsgMultiBody
)
