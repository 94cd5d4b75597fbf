//! Integration tests of the I/O surface: netlist text round-trips, VCD
//! export of real simulation results and ASCII figure rendering.

use halotis::core::{LogicLevel, Time};
use halotis::experiments::{multiplier_fixture, multiplier_stimulus, SEQUENCE_FIG6};
use halotis::netlist::{generators, parser, technology, writer};
use halotis::sim::{CompiledCircuit, SimulationConfig};
use halotis::waveform::ascii::{render_trace, AsciiOptions};
use halotis::waveform::vcd;

#[test]
fn generated_multiplier_round_trips_through_the_text_format() {
    let original = generators::multiplier(4, 4);
    let text = writer::to_text(&original);
    let reparsed = parser::parse(&text).expect("writer output must be parseable");
    assert_eq!(reparsed.gate_count(), original.gate_count());
    assert_eq!(reparsed.net_count(), original.net_count());
    assert_eq!(
        reparsed.primary_outputs().len(),
        original.primary_outputs().len()
    );
    // The reparsed circuit is still simulatable and functionally identical.
    let library = technology::cmos06();
    let fixture_ports = generators::MultiplierPorts::new(4, 4);
    let stimulus = {
        let mut stimulus = halotis::waveform::Stimulus::new(library.default_input_slew());
        for bit in fixture_ports
            .a_refs()
            .iter()
            .chain(fixture_ports.b_refs().iter())
        {
            stimulus.set_initial(*bit, LogicLevel::Low);
        }
        stimulus.drive_bus_value(&fixture_ports.a_refs(), 0x9, Time::from_ns(1.0));
        stimulus.drive_bus_value(&fixture_ports.b_refs(), 0xE, Time::from_ns(1.0));
        stimulus
    };
    let circuit = CompiledCircuit::compile(&reparsed, &library).unwrap();
    let mut state = circuit.new_state();
    let result = circuit
        .run_with(&mut state, &stimulus, &SimulationConfig::ddm())
        .unwrap();
    let mut product = 0u64;
    for (bit, name) in fixture_ports.s.iter().enumerate() {
        if result.ideal_waveform(name).unwrap().final_level() == LogicLevel::High {
            product |= 1 << bit;
        }
    }
    assert_eq!(product, 0x9 * 0xE);
}

#[test]
fn simulation_results_export_to_vcd() {
    let fixture = multiplier_fixture();
    let stimulus = multiplier_stimulus(&fixture.ports, SEQUENCE_FIG6);
    let circuit = CompiledCircuit::compile(&fixture.netlist, &fixture.library).unwrap();
    let mut state = circuit.new_state();
    let result = circuit
        .run_with(&mut state, &stimulus, &SimulationConfig::ddm())
        .unwrap();
    let text = vcd::to_string("mult4x4", &result.output_trace());
    assert!(text.contains("$timescale 1 fs $end"));
    assert!(text.contains("$scope module mult4x4 $end"));
    for bit in 0..8 {
        assert!(
            text.contains(&format!(" s{bit} $end")),
            "missing s{bit} declaration"
        );
    }
    // There is at least one timestamped change section after the header.
    let changes = text
        .lines()
        .filter(|line| line.starts_with('#') && *line != "#0")
        .count();
    assert!(changes > 10, "only {changes} change timestamps in the VCD");
}

#[test]
fn ascii_rendering_covers_the_paper_window() {
    let fixture = multiplier_fixture();
    let stimulus = multiplier_stimulus(&fixture.ports, SEQUENCE_FIG6);
    let circuit = CompiledCircuit::compile(&fixture.netlist, &fixture.library).unwrap();
    let mut state = circuit.new_state();
    let result = circuit
        .run_with(&mut state, &stimulus, &SimulationConfig::ddm())
        .unwrap();
    let options = AsciiOptions::new(Time::ZERO, Time::from_ns(25.0), 100);
    let text = render_trace(&result.output_trace(), &options);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 8);
    for line in lines {
        // name column + space + 100 waveform glyphs
        assert_eq!(line.chars().count(), "s0".len() + 1 + 100);
    }
}
