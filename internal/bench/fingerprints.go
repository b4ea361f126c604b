package bench

// seed1Fingerprints are the result fingerprints of every workload at seed
// 1. A run whose fingerprint differs prints model_changed=yes: the
// simulated results moved. That is information for reviewing a model
// change, not a failure; a change meant only to speed the
// simulator up must leave these values identical.
var seed1Fingerprints = map[string]string{
	"clos16-sat":       "f86fedd76b99c0e2140e7a046d1eb4b2b0e8f00591b5f9d1519c8b5fa8633d43",
	"clos16-light":     "5511af890ed0c4a349b28443d90dcf4c598513e0f7d32686377e07f95a169ac3",
	"clos16-observed":  "7abe17b1b63c7f42f8b231d65e2c92daf2b8590a38e0c342276052ad51fe2e7a",
	"churn-faults":     "b61c4676da5c1a1a2ae84896aad999238b795e4b1bbc9aadedaf477680e607e4",
	"paper128-sharded": "12ec2606949db995a38d52f868b8b712234c4306067e929d2c59f2bea9e9d8d9",
}
