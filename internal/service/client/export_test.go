package client

import "net/http"

// InProcessTransport is the transport InProcess serves its requests with.
func InProcessTransport(h http.Handler) http.RoundTripper { return &handlerTransport{h: h} }
