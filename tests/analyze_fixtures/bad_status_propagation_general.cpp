// mrhs-analyze-fixture: as=src/core/fx_status_general.cpp
// expect: status-propagation:2
//
// Beyond the solver entry points: any declaration returning a
// Status/Result carrier is covered, and a (void) cast is still a
// discard. The `return save_state(...)` forwarding at the end is fine.

struct Status {
    static Status ok();
    bool is_ok() const;
};

Status save_state(const double* x, int n);

void shutdown(const double* x, int n) {
    save_state(x, n);        // discard of a non-entry-point Status call
    (void)save_state(x, n);  // (void) cast is still a discard
}

Status forward_state(const double* x, int n) {
    return save_state(x, n);  // forwarding propagates: not flagged
}
