//! How `Config::default` reads `DAP_TESTKIT_SEED`. Environment
//! variables are process-wide, so this binary holds a single test.

use std::panic::catch_unwind;

use dap_testkit::{Config, DEFAULT_SEED};

#[test]
fn an_unparsable_seed_panics_naming_it_and_a_hex_seed_parses() {
    std::env::set_var("DAP_TESTKIT_SEED", "0xnope");
    let payload = catch_unwind(Config::default).expect_err("an unparsable seed must panic");
    let message = payload
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert!(message.contains("0xnope"), "{message}");

    std::env::set_var("DAP_TESTKIT_SEED", "0x10");
    assert_eq!(Config::default().seed, 16);

    std::env::set_var("DAP_TESTKIT_SEED", "");
    assert_eq!(Config::default().seed, DEFAULT_SEED);
    std::env::remove_var("DAP_TESTKIT_SEED");
    assert_eq!(Config::default().seed, DEFAULT_SEED);
}
