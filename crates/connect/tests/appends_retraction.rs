//! An update reaching an appends-mode file sink: the un-gated
//! `EMIT STREAM` aggregate below retracts its first count when the
//! second bid for the same item arrives, and an appends-mode sink has no
//! way to write a retraction.

use onesql_connect::session;
use onesql_types::Error;

/// Run the script into a fresh appends-mode CSV sink; returns the error,
/// the sink file's text once the pipeline is gone, and the file's path.
fn run_into_appends_sink(transactional: bool) -> (Error, String, String) {
    let dir = std::env::temp_dir().join("onesql_appends_retraction");
    std::fs::create_dir_all(&dir).unwrap();
    let tag = format!("{}-{transactional}", std::process::id());
    let input = dir.join(format!("in-{tag}.csv"));
    let output = dir.join(format!("out-{tag}.csv"));
    let _ = std::fs::remove_file(&output);
    std::fs::write(&input, "8:01,5,tea\n8:02,7,pot\n8:03,9,tea\n").unwrap();
    let script = format!(
        "CREATE SOURCE Bid (bidtime TIMESTAMP, price INT, item STRING, WATERMARK FOR bidtime)
           WITH (connector = 'file', path = '{}');
         CREATE SINK out WITH (connector = 'file', path = '{}', mode = 'appends',
                               transactional = {});
         INSERT INTO out SELECT item, COUNT(*) AS bids FROM Bid GROUP BY item EMIT STREAM;",
        input.display(),
        output.display(),
        if transactional { "TRUE" } else { "FALSE" },
    );
    let mut session = session();
    let mut pipeline = session
        .execute_script(&script)
        .unwrap()
        .into_pipeline()
        .unwrap();
    let err = pipeline.run().unwrap_err();
    drop(pipeline);
    drop(session);
    let written = std::fs::read_to_string(&output).unwrap();
    (err, written, output.display().to_string())
}

#[test]
fn retraction_into_appends_csv_sink_is_a_typed_error() {
    for transactional in [false, true] {
        let (err, written, path) = run_into_appends_sink(transactional);
        let sink = if transactional { "txnfile" } else { "file" };
        let Error::Execution(msg) = err else {
            panic!("expected an execution error, got {err:?}");
        };
        assert_eq!(
            msg,
            format!(
                "{sink}:{path}: retraction reached an appends-mode sink; use \
                 CsvSinkMode::Changelog or a watermark-gated query"
            )
        );
        // The rows of the failing batch before the retraction reached the
        // file; the retraction and everything after it did not.
        assert_eq!(written, "item,bids\ntea,1\npot,1\n", "{sink}");
    }
}
