//! Quickstart for the deadlock-avoidance broker: two TCP clients drive
//! two processes into the classic hold-and-wait cycle; the broker parks
//! the request that would close the cycle and forces the lower-priority
//! owner to give its resource up, so neither process ever deadlocks.
//!
//! Run with `cargo run --example avoidance_quickstart` (unix targets).

use deltaos::core::{Priority, ProcId, ResId};
use deltaos::service::{AvoidanceMode, CoreConfig, CoreRuntime, Request, Response, TcpClient};

fn main() {
    let server = CoreRuntime::bind("127.0.0.1:0", CoreConfig::default()).expect("bind");

    // Two independent client connections — think "two PEs talking to the
    // shared DAU" — sharing one avoidance session.
    let mut alice = TcpClient::connect(server.local_addr()).expect("connect");
    let mut bob = TcpClient::connect(server.local_addr()).expect("connect");

    let Response::Opened(sid) = alice
        .call(&Request::OpenAvoid {
            resources: 2,
            processes: 2,
            mode: AvoidanceMode::Metered, // cycle-costed MPC755 model
        })
        .expect("open avoidance session")
    else {
        panic!("expected Opened");
    };
    // Alice's process outranks Bob's (smaller level = higher priority),
    // so when Alice's request closes a cycle, *Bob* is asked to shed.
    for (p, level) in [(ProcId(0), 1u8), (ProcId(1), 2)] {
        alice
            .call(&Request::SetPriority {
                session: sid,
                p,
                priority: Priority::new(level),
            })
            .expect("set priority");
    }

    let acquire = |c: &mut TcpClient, p: u16, q: u16| {
        c.call(&Request::Acquire {
            session: sid,
            p: ProcId(p),
            q: ResId(q),
            wait: false,
        })
        .expect("acquire")
    };

    // Hold-and-wait, one arm per client.
    println!("alice: acquire R0 -> {:?}", acquire(&mut alice, 0, 0));
    println!("bob:   acquire R1 -> {:?}", acquire(&mut bob, 1, 1));
    // Bob queues behind Alice on R0 — no deadlock risk yet.
    println!("bob:   acquire R0 -> {:?}", acquire(&mut bob, 1, 0));
    // Alice's request for R1 would close the cycle: the broker parks it
    // and answers with a give-up ask naming who must shed what.
    let Response::GiveUp { ask, cycles, .. } = acquire(&mut alice, 0, 1) else {
        panic!("closing the cycle must come back as GiveUp");
    };
    println!(
        "alice: acquire R1 -> parked; {:?} must shed {:?} ({:?}, {cycles} cycles)",
        ask.target, ask.resources, ask.reason
    );
    assert_eq!(ask.target, ProcId(1));

    // Bob complies: the acknowledged give-up releases R1, which the
    // broker immediately hands to Alice's parked request.
    let resolved = bob
        .call(&Request::GiveUpAck {
            session: sid,
            p: ProcId(1),
        })
        .expect("give-up ack");
    println!("bob:   give up -> {resolved:?}");

    // Alice finishes with both resources and releases them; R0 goes
    // straight to Bob's still-queued request.
    for q in [1u16, 0] {
        let resp = alice
            .call(&Request::BrokerRelease {
                session: sid,
                p: ProcId(0),
                q: ResId(q),
            })
            .expect("release");
        println!("alice: release R{q} -> {resp:?}");
    }
    // Bob re-polls the acquire he was deferred on: it is his now.
    println!("bob:   acquire R0 -> {:?}", acquire(&mut bob, 1, 0));

    alice
        .call(&Request::Close { session: sid })
        .expect("close session");
    server.stop();
    println!("no deadlock ever formed; session drained cleanly");
}
